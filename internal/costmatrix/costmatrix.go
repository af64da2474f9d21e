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
// applied set. Pricing a candidate copies that table onto the stack,
// lowers only the slots on the candidate's table (inum.Cache.Lower) and
// runs the cache's own fold (inum.Cache.Fold); committing a pick lowers
// the kept table in place. The engine never reads a plan's path tree, so
// it runs unchanged over slim and snapshot-loaded caches
// (internal/plancache) as well as tree-backed ones; the serving layer's
// /recommend endpoint relies on exactly that.
//
// The engine's results are bit-identical to pricing each configuration from
// scratch through inum.Cache.Cost, because it is the same kernel: each
// slot sees the applied set in pick order and the candidate last with the
// same strict < rule that resolving the equivalent configuration applies,
// the fold is shared, and workload totals fold weight × query cost with
// optimizer.AddWeighted in registration order.
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
	// CandidateEvals is the number of EvaluateCandidate calls
	// (candidates × rounds in a greedy search).
	CandidateEvals int64
	// QueryEvals is the number of per-query delta evaluations performed —
	// the query referenced the candidate's table, so its plans were
	// re-summed.
	QueryEvals int64
	// QuerySkips is the number of per-query evaluations skipped because
	// the table index proved the candidate cannot affect the query.
	QuerySkips int64
	// PlanEvals is the number of per-plan cost recomputations inside the
	// performed query evaluations.
	PlanEvals int64
	// Applies is the number of committed picks.
	Applies int64
}

// queryState is the live state of one workload query.
type queryState struct {
	cache  *inum.Cache
	weight float64
	// table is the cache's kernel table resolved under the applied set.
	table []float64
	// best is the winning plan cost under the applied set (what
	// Cache.Cost would return for the equivalent configuration).
	best float64
}

// Engine prices a workload incrementally under a growing index set.
// EvaluateCandidate is safe for concurrent use (a greedy round fans
// candidates over a worker pool); New and Apply are not, and must not run
// concurrently with evaluations.
type Engine struct {
	queries []*queryState
	// byTable maps a table name to the queries referencing it, ascending.
	byTable map[string][]int
	chosen  []*catalog.Index
	// total is the weighted workload cost under the applied set, summed in
	// registration order.
	total float64

	candidateEvals atomic.Int64
	queryEvals     atomic.Int64
	querySkips     atomic.Int64
	planEvals      atomic.Int64
	applies        atomic.Int64
}

// New builds an engine over the workload, priced under the empty
// configuration. It fails if any query has no applicable cached plan (an
// empty cache), mirroring Cache.Cost's error.
func New(queries []Query) (*Engine, error) {
	e := &Engine{byTable: make(map[string][]int)}
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
		// Queries are processed in registration order, so each per-table
		// list stays ascending without sorting; self-joins list a query
		// once per table.
		onTable := make(map[string]bool, len(c.Q.Rels))
		for _, r := range c.Q.Rels {
			if t := r.Table.Name; !onTable[t] {
				onTable[t] = true
				e.byTable[t] = append(e.byTable[t], qi)
			}
		}
		e.queries = append(e.queries, qs)
	}
	e.recomputeTotal()
	return e, nil
}

// recomputeTotal refreshes the workload total as the same in-order weighted
// sum EvaluateCandidate produces, so committed and evaluated totals agree
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

// EvaluateCandidate prices the workload under the applied set plus ix,
// without committing anything. Only queries referencing ix's table are
// re-priced — every other query contributes its stored cost — but the
// final weighted sum still visits queries in registration order, so the
// result is bit-identical to re-pricing the whole workload from scratch
// under the equivalent configuration. Safe for concurrent use.
//
//pinum:allocfree pinned by TestEvaluateCandidateAllocFree
func (e *Engine) EvaluateCandidate(ix *catalog.Index) float64 {
	affected := e.byTable[ix.Table]
	total := 0.0
	j := 0
	// Counters accumulate locally and flush once per call: parallel rounds
	// run many evaluations at once, and per-query atomic adds on shared
	// cache lines would make even the skip path contended.
	var evals, skips, plans int64
	var buf [inum.StackSlots]float64
	for qi, qs := range e.queries {
		c := qs.best
		if j < len(affected) && affected[j] == qi {
			j++
			tbl := qs.cache.Table(buf[:])
			copy(tbl, qs.table)
			qs.cache.Lower(tbl, ix)
			c, _ = qs.cache.Fold(tbl)
			evals++
			plans += int64(len(qs.cache.Plans))
		} else {
			skips++
		}
		total = optimizer.AddWeighted(total, qs.weight, c)
	}
	e.candidateEvals.Add(1)
	e.queryEvals.Add(evals)
	e.querySkips.Add(skips)
	e.planEvals.Add(plans)
	return total
}

// Apply commits a pick: per affected query, the kept table's slots on the
// pick's table fold the pick in (the same lowering EvaluateCandidate
// computed), the query's winning cost is refreshed, and the workload total
// is re-summed. Unaffected queries are untouched. Not safe to run
// concurrently with evaluations.
func (e *Engine) Apply(pick *catalog.Index) {
	e.applies.Add(1)
	for _, qi := range e.byTable[pick.Table] {
		qs := e.queries[qi]
		qs.cache.Lower(qs.table, pick)
		qs.best, _ = qs.cache.Fold(qs.table)
	}
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
		Applies:        e.applies.Load(),
	}
}
