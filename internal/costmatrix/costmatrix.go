// Package costmatrix implements the incremental workload-cost engine the
// advisor's greedy search runs on: per-query leaf-cost state under the
// applied index set that turns each candidate evaluation from a full
// re-pricing of the workload into a delta computation.
//
// The INUM/CoPhy-style decomposition the engine exploits is that a cached
// plan's cost is Internal + Σ coef × accessCost(leaf, C), and accessCost is
// a min over the configuration's indexes per relation. Adding one candidate
// index to an already-priced configuration therefore only changes leaves on
// the candidate's table, and the new per-leaf cost is
// min(current[leaf], leafCost(candidate)) — no other index in the
// configuration needs to be looked at again. A workload-level inverted
// index (table → queries) skips entirely the queries that never reference
// the candidate's table.
//
// Each query keeps one inum kernel table: its leaf-slot costs under the
// applied set. The candidate's side of the min, leafCost(candidate), does
// not depend on the applied set at all, so it is priced once: a Lowerings
// table holds, per (candidate, query on the candidate's table), the
// candidate's lowering list — the (slot, price) pairs inum.Cache.Lower
// would apply (inum.Cache.AppendLowering). The table is immutable and
// weight-independent, so the serving layer builds one per snapshot set on
// its first /recommend and every request's engine reads it; a standalone
// advisor run builds its own. Pricing a listed candidate then walks each
// affected query's list against the kept table:
//
//   - if no listed price is strictly below its slot's current value,
//     lowering would leave the table bit-for-bit unchanged, and Fold is a
//     pure function of the table, so the query's cost is its kept best
//     and the fold is skipped (Stats.FoldSkips);
//   - otherwise the table is copied onto the stack, lowered from the list
//     (inum.LowerFrom) and folded with the cache's own fold
//     (inum.Cache.Fold).
//
// Committing a pick lowers the kept tables from the same lists in place.
// The engine never reads a plan's path tree, so it runs unchanged over
// slim and snapshot-loaded caches (internal/plancache) as well as
// tree-backed ones; the serving layer's /recommend endpoint relies on
// exactly that.
//
// The engine's results are bit-identical to pricing each configuration from
// scratch through inum.Cache.Cost, because it is the same kernel: each
// slot sees the applied set in pick order and the candidate last with the
// same strict < rule that resolving the equivalent configuration applies,
// a list holds exactly the prices Lower computes, the fold is shared, and
// workload totals fold weight × query cost with optimizer.AddWeighted in
// registration order.
package costmatrix

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
)

// Query is one workload entry: a built plan cache and its frequency weight
// (weights <= 0 count as 1, matching the advisor's normalisation).
type Query struct {
	Cache  *inum.Cache
	Weight float64
}

// Stats counts the pricing work an engine performed. The interesting ratio
// is QuerySkips : QueryEvals — how much of the workload the table→queries
// index pruned away without touching a single plan.
type Stats struct {
	// CandidateEvals is the number of candidate evaluations
	// (candidates × rounds in a greedy search).
	CandidateEvals int64
	// QueryEvals is the number of per-query delta evaluations performed:
	// the query referenced the candidate's table, so its slots were
	// checked against the candidate's prices — whether or not that led to
	// a fold.
	QueryEvals int64
	// QuerySkips is the number of per-query evaluations skipped because
	// the table index proved the candidate cannot affect the query.
	QuerySkips int64
	// PlanEvals is the number of plans actually folded inside the
	// performed query evaluations (a skipped fold folds none).
	PlanEvals int64
	// FoldSkips is the number of query evaluations whose fold was skipped
	// because the candidate lowered none of the query's slots.
	FoldSkips int64
	// Applies is the number of committed picks.
	Applies int64
}

// Lowerings is an immutable [candidate][query] table of lowering lists
// over one set of caches and one candidate list: for candidate c and
// every query q on c's table (ascending, a self-join listed once), the
// (slot, price) pairs c lowers in q's kernel table. It is keyed by
// candidate ordinal and stored in flat arenas, so reading it takes no
// map lookup, lock or allocation, and any number of engines may share it.
type Lowerings struct {
	caches []*inum.Cache
	cands  []*catalog.Index
	// Candidate c's (candidate, query) pairs are candOff[c]:candOff[c+1].
	// Pair p belongs to query pairQuery[p] and its list is entries
	// pairOff[p]:pairOff[p+1] of slots and prices.
	candOff   []int32
	pairQuery []int32
	pairOff   []int32
	slots     []int32
	prices    []float64
}

// BuildLowerings prices every candidate against every cache on its table
// once. Equal caches and candidates give an equal table.
func BuildLowerings(caches []*inum.Cache, cands []*catalog.Index) *Lowerings {
	byTable := tableIndex(caches)
	pairs := 0
	for _, ix := range cands {
		pairs += len(byTable[ix.Table])
	}
	l := &Lowerings{
		caches:    append([]*inum.Cache(nil), caches...),
		cands:     append([]*catalog.Index(nil), cands...),
		candOff:   make([]int32, 1, len(cands)+1),
		pairQuery: make([]int32, 0, pairs),
		pairOff:   make([]int32, 1, pairs+1),
	}
	var slots []int32
	var prices []float64
	for _, ix := range cands {
		for _, qi := range byTable[ix.Table] {
			l.pairQuery = append(l.pairQuery, int32(qi))
			slots, prices = caches[qi].AppendLowering(slots, prices, ix)
			l.pairOff = append(l.pairOff, int32(len(slots)))
		}
		l.candOff = append(l.candOff, int32(len(l.pairQuery)))
	}
	// The arenas live as long as the snapshot set: keep no growth slack.
	l.slots = append(make([]int32, 0, len(slots)), slots...)
	l.prices = append(make([]float64, 0, len(prices)), prices...)
	return l
}

// tableIndex maps each table name to the queries referencing it, in
// registration order, so every list stays ascending without sorting;
// self-joins list a query once per table.
func tableIndex(caches []*inum.Cache) map[string][]int {
	byTable := make(map[string][]int)
	for qi, c := range caches {
		onTable := make(map[string]bool, len(c.Q.Rels))
		for _, r := range c.Q.Rels {
			if t := r.Table.Name; !onTable[t] {
				onTable[t] = true
				byTable[t] = append(byTable[t], qi)
			}
		}
	}
	return byTable
}

// BuiltOver reports whether the table was built over exactly these caches
// and candidates, in this order (by identity, not by value).
func (l *Lowerings) BuiltOver(caches []*inum.Cache, cands []*catalog.Index) bool {
	return samePointers(caches, l.caches) && samePointers(cands, l.cands)
}

func samePointers[T any](a, b []*T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Bytes is the table's arena footprint: offsets, query ordinals, slots
// and prices (the cache and candidate pointer lists excluded).
func (l *Lowerings) Bytes() int64 {
	return 4*int64(cap(l.candOff)+cap(l.pairQuery)+cap(l.pairOff)+cap(l.slots)) + 8*int64(cap(l.prices))
}

// queryState is the live state of one workload query.
type queryState struct {
	cache  *inum.Cache
	weight float64
	// table is the cache's kernel table resolved under the applied set.
	table []float64
	// best is the winning plan cost under the applied set (what
	// Cache.Cost would return for the equivalent configuration). It is
	// always Fold(table).
	best float64
}

// price returns the query's cost with one lowering list applied on top
// of the applied set, and whether it had to fold: when the list lowers
// no slot the lowered table is the kept table, so the cost is best. buf
// is the caller's stack scratch for the lowered table.
//
//pinum:hotpath
func (qs *queryState) price(slots []int32, prices []float64, buf []float64) (float64, bool) {
	if !inum.Lowers(qs.table, slots, prices) {
		return qs.best, false
	}
	tbl := qs.cache.Table(buf)
	copy(tbl, qs.table)
	inum.LowerFrom(tbl, slots, prices)
	cost, _ := qs.cache.Fold(tbl)
	return cost, true
}

// commit lowers the kept table from one list in place and refreshes the
// query's winning cost.
func (qs *queryState) commit(slots []int32, prices []float64) {
	if inum.Lowers(qs.table, slots, prices) {
		inum.LowerFrom(qs.table, slots, prices)
		qs.best, _ = qs.cache.Fold(qs.table)
	}
}

// Engine prices a workload incrementally under a growing index set.
// Evaluate and EvaluateCandidate are safe for concurrent use (a greedy
// round fans candidates over a worker pool); New, Commit and Apply are
// not, and must not run concurrently with evaluations.
type Engine struct {
	queries []*queryState
	// byTable maps a table name to the queries referencing it, ascending;
	// only the unlisted entry points (EvaluateCandidate, Apply) read it.
	byTable map[string][]int
	// low holds the listed candidates' lowering lists (nil for an engine
	// built by New).
	low    *Lowerings
	chosen []*catalog.Index
	// total is the weighted workload cost under the applied set, summed in
	// registration order.
	total float64

	candidateEvals atomic.Int64
	queryEvals     atomic.Int64
	querySkips     atomic.Int64
	planEvals      atomic.Int64
	foldSkips      atomic.Int64
	applies        atomic.Int64
}

// New builds an engine over the workload, priced under the empty
// configuration. It fails if any query has no applicable cached plan (an
// empty cache), mirroring Cache.Cost's error. Its candidates are priced
// one index at a time (EvaluateCandidate, Apply); NewListed adds a
// Lowerings table for candidates priced by ordinal.
func New(queries []Query) (*Engine, error) {
	e := &Engine{}
	caches := make([]*inum.Cache, len(queries))
	for qi, in := range queries {
		c := in.Cache
		if c == nil {
			return nil, fmt.Errorf("costmatrix: query %d has no plan cache", qi)
		}
		w := in.Weight
		if w <= 0 {
			w = 1
		}
		qs := &queryState{cache: c, weight: w, table: c.Table(nil)}
		c.Resolve(qs.table, nil)
		qs.best, _ = c.Fold(qs.table)
		if math.IsInf(qs.best, 1) {
			return nil, fmt.Errorf("costmatrix: no applicable cached plan for query %s under the empty configuration", c.Q.Name)
		}
		e.queries = append(e.queries, qs)
		caches[qi] = c
	}
	e.byTable = tableIndex(caches)
	e.recomputeTotal()
	return e, nil
}

// NewListed builds an engine over the workload whose candidates are
// low's, priced by ordinal through Evaluate and Commit. low must have
// been built over the workload's caches, in registration order.
func NewListed(queries []Query, low *Lowerings) (*Engine, error) {
	e, err := New(queries)
	if err != nil {
		return nil, err
	}
	caches := make([]*inum.Cache, len(queries))
	for i, q := range queries {
		caches[i] = q.Cache
	}
	if !samePointers(caches, low.caches) {
		return nil, fmt.Errorf("costmatrix: lowering table was built over different caches")
	}
	e.low = low
	return e, nil
}

// recomputeTotal refreshes the workload total as the same in-order weighted
// sum the evaluations produce, so committed and evaluated totals agree
// bit-for-bit.
func (e *Engine) recomputeTotal() {
	total := 0.0
	for _, qs := range e.queries {
		total = optimizer.AddWeighted(total, qs.weight, qs.best)
	}
	e.total = total
}

// TotalCost returns the weighted workload cost under the applied set.
func (e *Engine) TotalCost() float64 { return e.total }

// QueryCosts returns the current per-query costs under the applied set, in
// registration order (unweighted, as Cache.Cost reports them).
func (e *Engine) QueryCosts() []float64 {
	out := make([]float64, len(e.queries))
	for i, qs := range e.queries {
		out[i] = qs.best
	}
	return out
}

// Chosen returns the applied indexes in pick order.
func (e *Engine) Chosen() []*catalog.Index {
	return append([]*catalog.Index(nil), e.chosen...)
}

// Evaluate prices the workload under the applied set plus listed
// candidate c, without committing anything. Only queries on c's table
// are re-priced, each from its precomputed list (and folded only when the
// list lowers a slot); every other query contributes its stored cost.
// The weighted sum still visits queries in registration order, so the
// result is bit-identical to re-pricing the whole workload from scratch
// under the equivalent configuration. Safe for concurrent use.
//
//pinum:allocfree pinned by TestEvaluateListedAllocFree
func (e *Engine) Evaluate(c int) float64 {
	l := e.low
	p, end := l.candOff[c], l.candOff[c+1]
	total := 0.0
	// Counters accumulate locally and flush once per call: parallel rounds
	// run many evaluations at once, and per-query atomic adds on shared
	// cache lines would make even the skip path contended.
	var evals, skips, plans, foldSkips int64
	var buf [inum.StackSlots]float64
	for qi, qs := range e.queries {
		cost := qs.best
		if p < end && int(l.pairQuery[p]) == qi {
			lo, hi := l.pairOff[p], l.pairOff[p+1]
			var folded bool
			if cost, folded = qs.price(l.slots[lo:hi], l.prices[lo:hi], buf[:]); folded {
				plans += int64(len(qs.cache.Plans))
			} else {
				foldSkips++
			}
			evals++
			p++
		} else {
			skips++
		}
		total = optimizer.AddWeighted(total, qs.weight, cost)
	}
	e.flush(evals, skips, plans, foldSkips)
	return total
}

// EvaluateCandidate is Evaluate for an index with no row in the engine's
// Lowerings table: each affected query's list is priced on the spot into
// stack scratch, then applied exactly as Evaluate applies a stored one.
// It prices indexes outside a candidate set, and the tests use it as the
// listed path's reference. Safe for concurrent use.
//
//pinum:allocfree pinned by TestEvaluateCandidateAllocFree
func (e *Engine) EvaluateCandidate(ix *catalog.Index) float64 {
	affected := e.byTable[ix.Table]
	total := 0.0
	j := 0
	var evals, skips, plans, foldSkips int64
	var buf [inum.StackSlots]float64
	var slotBuf [inum.StackSlots]int32
	var priceBuf [inum.StackSlots]float64
	for qi, qs := range e.queries {
		cost := qs.best
		if j < len(affected) && affected[j] == qi {
			j++
			slots, prices := qs.cache.AppendLowering(slotBuf[:0], priceBuf[:0], ix)
			var folded bool
			if cost, folded = qs.price(slots, prices, buf[:]); folded {
				plans += int64(len(qs.cache.Plans))
			} else {
				foldSkips++
			}
			evals++
		} else {
			skips++
		}
		total = optimizer.AddWeighted(total, qs.weight, cost)
	}
	e.flush(evals, skips, plans, foldSkips)
	return total
}

// flush adds one evaluation's locally accumulated counters.
func (e *Engine) flush(evals, skips, plans, foldSkips int64) {
	e.candidateEvals.Add(1)
	e.queryEvals.Add(evals)
	e.querySkips.Add(skips)
	e.planEvals.Add(plans)
	e.foldSkips.Add(foldSkips)
}

// Commit applies listed candidate c as a pick: per affected query, the
// kept table is lowered from c's list in place (the same lowering
// Evaluate computed), the query's winning cost is refreshed, and the
// workload total is re-summed. Unaffected queries are untouched. Not safe
// to run concurrently with evaluations.
func (e *Engine) Commit(c int) {
	l := e.low
	for p := l.candOff[c]; p < l.candOff[c+1]; p++ {
		lo, hi := l.pairOff[p], l.pairOff[p+1]
		e.queries[l.pairQuery[p]].commit(l.slots[lo:hi], l.prices[lo:hi])
	}
	e.committed(l.cands[c])
}

// Apply is Commit for an index with no row in the engine's Lowerings
// table.
func (e *Engine) Apply(pick *catalog.Index) {
	for _, qi := range e.byTable[pick.Table] {
		qs := e.queries[qi]
		qs.commit(qs.cache.AppendLowering(nil, nil, pick))
	}
	e.committed(pick)
}

// committed records a pick whose lowering is already in the kept tables.
func (e *Engine) committed(pick *catalog.Index) {
	e.applies.Add(1)
	e.recomputeTotal()
	e.chosen = append(e.chosen, pick)
}

// Stats snapshots the work counters.
func (e *Engine) Stats() Stats {
	return Stats{
		CandidateEvals: e.candidateEvals.Load(),
		QueryEvals:     e.queryEvals.Load(),
		QuerySkips:     e.querySkips.Load(),
		PlanEvals:      e.planEvals.Load(),
		FoldSkips:      e.foldSkips.Load(),
		Applies:        e.applies.Load(),
	}
}
