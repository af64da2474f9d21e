package optimizer

import (
	"fmt"
	"math"
	"sort"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/storage"
)

// RelInfo is the per-relation planning state derived once per query:
// applied filters, their combined selectivity, the set of columns the query
// touches, and the relation's interesting orders.
type RelInfo struct {
	Rel     int
	Table   *catalog.Table
	Filters []query.Filter
	// Sel is the combined selectivity of all filters.
	Sel float64
	// Rows is Table.RowCount × Sel.
	Rows float64
	// Needed holds every column of this relation the query references.
	Needed map[string]bool
	// NeededCols lists Needed's columns, sorted: the form the index-only
	// checks and candidate generation walk, so none of them ranges over
	// the map.
	NeededCols []string
	// Pages and TuplesPerPage are the table's heap size
	// (storage.TablePages) and its tuples per heap page, fixed for the
	// analysis's lifetime like Rows, so index and sequential scan costing
	// never re-derive them from the column widths.
	Pages, TuplesPerPage int64
	// FilterSel maps a column to the combined selectivity of the filters
	// on that column (used for index range scans on that column).
	FilterSel map[string]float64
	// Interesting lists this relation's interesting orders, sorted.
	Interesting []string
}

// Analysis bundles everything cost evaluation needs about a query. It is
// shared by the optimizer proper and by the INUM/PINUM cost model, which is
// what guarantees the two cost identical plans identically.
type Analysis struct {
	Q      *query.Query
	Stats  *stats.Store
	Coster Coster

	Rels []RelInfo
	// JoinSel caches the selectivity of each join clause, index-aligned
	// with Q.Joins.
	JoinSel []float64

	rowsCache map[RelSet]float64

	// Interesting-order interning, built once per analysis: the fast
	// planner identifies leaf requirements and pathkeys through these
	// 1-based per-relation ids; ordBase offsets them into a dense global
	// id space shared by all relations; ordTotal is the highest global
	// id. packed reports whether the query additionally fits the
	// fixed-size planKey invariants (≤16 relations, ≤63 interesting
	// orders per relation, grouping/ordering ≤8 columns) — inside them
	// ids pack into planKey bytes, outside them the fast planner spills
	// plan identities to the variable-width string-key lane
	// (frontier.go). fastPlan is false only past the planner's hard
	// capacity (relations beyond RelSet's 64 bits, or a global order id
	// space overflowing 16 bits), where Optimize errors out.
	ordIDs   []map[string]uint16
	ordBase  []uint16
	ordTotal int
	packed   bool
	fastPlan bool

	// Lazily-built connectivity-aware enumeration state, shared by every
	// fast Optimize call on this analysis: the join graph — and with it
	// connectivity, the csg-cmp pair list and the overflow verdict —
	// depends only on the query's join clauses, never on the
	// configuration or options, so planFast computes it once and reuses
	// it across the repeated calls cache construction and the experiments
	// make. Like rowsCache, this makes an Analysis single-threaded with
	// respect to concurrent Optimize calls (callers already build one
	// analysis per worker).
	ccpOnce      bool
	ccpConnected bool
	ccpPairs     []csgCmpPair
	ccpFits      bool
}

// orderGID returns the dense global id (≥1) of an interned interesting-
// order column. Every column a planner-generated leaf requirement or
// output order can name is an interesting order of its relation (join,
// group-by and order-by columns all are, by construction), so the lookup
// never misses on planner inputs.
func (a *Analysis) orderGID(c query.ColRef) uint16 {
	return a.ordBase[c.Rel] + a.ordIDs[c.Rel][c.Column]
}

// FastPlannable reports whether Optimize will use the fast planner for
// this analysis. Queries inside the packed-key invariants (≤16 relations,
// ≤63 interesting orders per relation, grouping/ordering ≤8 columns) run
// the packed fixed-size key lane; wider queries run the same fast planner
// through the variable-width string-key lane. It is false only past the
// planner's hard capacity (over 64 relations, or a global interned-order
// space overflowing 16 bits), where Optimize returns an error.
func (a *Analysis) FastPlannable() bool { return a.fastPlan }

// NewAnalysis derives the planning state for q. The statistics store may be
// nil, in which case column metadata defaults drive selectivity.
func NewAnalysis(q *query.Query, st *stats.Store, params CostParams) (*Analysis, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	a := &Analysis{
		Q:         q,
		Stats:     st,
		Coster:    Coster{P: params},
		rowsCache: make(map[RelSet]float64),
	}
	needed := q.ColumnsNeeded()
	ios := q.InterestingOrders()
	for i, r := range q.Rels {
		ri := RelInfo{
			Rel:         i,
			Table:       r.Table,
			Needed:      needed[i],
			NeededCols:  sortedColumns(needed[i]),
			FilterSel:   make(map[string]float64),
			Interesting: ios[i],
			Sel:         1,
			Pages:       storage.TablePages(r.Table),
		}
		ri.TuplesPerPage = tuplesPerPage(r.Table.RowCount, ri.Pages)
		for _, f := range q.Filters {
			if f.Col.Rel != i {
				continue
			}
			ri.Filters = append(ri.Filters, f)
			s := a.filterSelectivity(r.Table, f)
			ri.Sel *= s
			if prev, ok := ri.FilterSel[f.Col.Column]; ok {
				ri.FilterSel[f.Col.Column] = prev * s
			} else {
				ri.FilterSel[f.Col.Column] = s
			}
		}
		ri.Rows = float64(r.Table.RowCount) * ri.Sel
		if ri.Rows < 1 {
			ri.Rows = 1
		}
		a.Rels = append(a.Rels, ri)
	}
	for _, j := range q.Joins {
		a.JoinSel = append(a.JoinSel, a.joinSelectivity(j))
	}

	// Intern the interesting orders for the fast planner. Every order is
	// interned regardless of width — the lookup and usefulness memos key
	// on global ids in both lanes; packed only decides whether plan keys
	// fit the fixed-size planKey or spill to the string-key lane.
	a.ordIDs = make([]map[string]uint16, len(a.Rels))
	a.ordBase = make([]uint16, len(a.Rels))
	packed := len(a.Rels) <= 16 && len(q.GroupBy) <= 8 && len(q.OrderBy) <= 8
	total := 0
	for i := range a.Rels {
		cols := a.Rels[i].Interesting
		if len(cols) > 63 {
			packed = false
		}
		m := make(map[string]uint16, len(cols))
		for k, col := range cols {
			m[col] = uint16(k + 1)
		}
		a.ordIDs[i] = m
		a.ordBase[i] = uint16(total)
		total += len(m)
	}
	a.ordTotal = total
	a.packed = packed
	// The 16-bit global id space bounds both lanes (clause-order packs and
	// the memo tables index by gid); RelSet bounds the relation count.
	a.fastPlan = len(a.Rels) <= 64 && total < math.MaxUint16
	return a, nil
}

// sortedColumns lists a column set's members in sorted order.
func sortedColumns(set map[string]bool) []string {
	cols := make([]string, 0, len(set))
	for col := range set {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	return cols
}

// colStats returns the statistics for a column, synthesising them from the
// column metadata when the store has none.
func (a *Analysis) colStats(t *catalog.Table, col string) *stats.ColumnStats {
	if a.Stats != nil {
		if s := a.Stats.Get(t.Name, col); s != nil {
			return s
		}
	}
	c := t.Column(col)
	if c == nil {
		return nil
	}
	ndv := c.NDV
	if ndv <= 0 {
		ndv = t.RowCount
	}
	return &stats.ColumnStats{
		Rows:     t.RowCount,
		Distinct: ndv,
		Min:      c.Min,
		Max:      c.Max,
	}
}

// NDV returns the distinct-value count of a column, at least 1.
func (a *Analysis) NDV(t *catalog.Table, col string) float64 {
	s := a.colStats(t, col)
	if s == nil || s.Distinct <= 0 {
		return math.Max(1, float64(t.RowCount))
	}
	return float64(s.Distinct)
}

func (a *Analysis) filterSelectivity(t *catalog.Table, f query.Filter) float64 {
	s := a.colStats(t, f.Col.Column)
	switch f.Op {
	case query.Eq:
		return s.EqSelectivity(f.Value)
	case query.Lt:
		return s.LTSelectivity(f.Value)
	case query.Le:
		return s.LTSelectivity(f.Value + 1)
	case query.Gt:
		return clamp01(1 - s.LTSelectivity(f.Value+1))
	case query.Ge:
		return clamp01(1 - s.LTSelectivity(f.Value))
	case query.Between:
		return s.RangeSelectivity(f.Value, f.Value2)
	default:
		return stats.DefaultRangeSel
	}
}

func (a *Analysis) joinSelectivity(j query.Join) float64 {
	lt := a.Q.Rels[j.Left.Rel].Table
	rt := a.Q.Rels[j.Right.Rel].Table
	nl := a.NDV(lt, j.Left.Column)
	nr := a.NDV(rt, j.Right.Column)
	d := math.Max(nl, nr)
	if d < 1 {
		d = 1
	}
	return 1 / d
}

// JoinRows estimates the cardinality of the join of the relations in set s:
// the product of filtered base cardinalities times the selectivity of every
// join clause internal to s. The estimate is order-independent, so it is
// cached per set.
func (a *Analysis) JoinRows(s RelSet) float64 {
	if r, ok := a.rowsCache[s]; ok {
		return r
	}
	rows := 1.0
	for _, i := range s.Members() {
		rows *= a.Rels[i].Rows
	}
	for k, j := range a.Q.Joins {
		if s.Has(j.Left.Rel) && s.Has(j.Right.Rel) {
			rows *= a.JoinSel[k]
		}
	}
	if rows < 1 {
		rows = 1
	}
	a.rowsCache[s] = rows
	return rows
}

// GroupCount estimates the number of groups produced by grouping on cols,
// given input cardinality rows.
func (a *Analysis) GroupCount(cols []query.ColRef, rows float64) float64 {
	if len(cols) == 0 {
		return 1
	}
	g := 1.0
	for _, c := range cols {
		g *= a.NDV(a.Q.Rels[c.Rel].Table, c.Column)
		if g > rows {
			return math.Max(1, rows)
		}
	}
	return math.Max(1, math.Min(g, rows))
}

// indexScanFacts describes one concrete index access option for a relation.
type indexScanFacts struct {
	Cost      float64
	IndexOnly bool
	// Ordered reports whether the scan delivers rows in lead-column order
	// usable as a pathkey (always true for B-tree scans here).
	LeadCol string
}

// IndexScanCost costs a scan of relation rel through index ix: the index
// applies any filters on its leading column as the range condition, fetches
// the heap unless the index covers all needed columns, and applies the
// remaining filters as quals.
func (a *Analysis) IndexScanCost(rel int, ix *catalog.Index) indexScanFacts {
	ri := &a.Rels[rel]
	t := ri.Table
	scanSel := 1.0
	leadFiltered := false
	if s, ok := ri.FilterSel[ix.LeadColumn()]; ok {
		scanSel = s
		leadFiltered = true
	}
	indexOnly := ri.coveredBy(ix)
	nQuals := len(ri.Filters)
	if leadFiltered {
		nQuals-- // the lead-column filter is the index condition
		if nQuals < 0 {
			nQuals = 0
		}
	}
	cost := a.Coster.indexScanCost(t.RowCount, ri.Pages, ri.TuplesPerPage, ix, scanSel, indexOnly, nQuals)
	return indexScanFacts{Cost: cost, IndexOnly: indexOnly, LeadCol: ix.LeadColumn()}
}

// SeqScanCost costs a full scan of relation rel.
func (a *Analysis) SeqScanCost(rel int) float64 {
	ri := &a.Rels[rel]
	return a.Coster.SeqScanCost(ri.Pages, ri.Table.RowCount, len(ri.Filters))
}

// coveredBy reports whether ix holds every column the query needs from
// the relation, so an access through it never visits the heap.
func (ri *RelInfo) coveredBy(ix *catalog.Index) bool {
	for _, col := range ri.NeededCols {
		if !ix.HasColumn(col) {
			return false
		}
	}
	return true
}

// LookupRows is the expected number of heap matches per equality probe on
// col (before the relation's other filters are applied).
func (a *Analysis) LookupRows(rel int, col string) float64 {
	ri := &a.Rels[rel]
	m := float64(ri.Table.RowCount) / a.NDV(ri.Table, col)
	if m < 1 {
		m = 1
	}
	return m
}

// LookupCost costs one nested-loop probe of relation rel through index ix
// on column col, remaining filters applied as quals.
func (a *Analysis) LookupCost(rel int, ix *catalog.Index, col string) float64 {
	ri := &a.Rels[rel]
	match := a.LookupRows(rel, col)
	cost := a.Coster.LookupCost(ri.Table, ix, match, ri.coveredBy(ix))
	cost += match * float64(len(ri.Filters)) * a.Coster.P.CPUOperatorCost
	return cost
}

// LeafApplicable reports whether an index can possibly satisfy a leaf
// requirement on the given table: it must live on that table and, for
// ordered and lookup accesses, cover the required column. This is the one
// authoritative applicability rule, so any future relaxation belongs here.
func LeafApplicable(table string, req LeafReq, ix *catalog.Index) bool {
	if ix.Table != table {
		return false
	}
	switch req.Mode {
	case AccessAny:
		return true
	case AccessOrdered, AccessLookup:
		return ix.Covers(req.Col)
	default:
		return false
	}
}

// IndexLeafCost costs satisfying one cached-plan leaf requirement through a
// single index, or reports that the index cannot satisfy it (LeafApplicable).
// It is the per-index unit AccessCost minimises over; the result depends
// only on (rel, req, ix), never on the rest of the configuration, which is
// what lets the INUM kernel (internal/inum) fold indexes into a resolved
// leaf table one at a time.
func (a *Analysis) IndexLeafCost(rel int, req LeafReq, ix *catalog.Index) (float64, bool) {
	if !LeafApplicable(a.Rels[rel].Table.Name, req, ix) {
		return 0, false
	}
	switch req.Mode {
	case AccessAny, AccessOrdered:
		return a.IndexScanCost(rel, ix).Cost, true
	case AccessLookup:
		return a.LookupCost(rel, ix, req.Col), true
	default:
		return 0, false
	}
}

// AccessCost evaluates the access cost of one cached-plan leaf requirement
// under an index configuration, considering exactly the access paths the
// optimizer itself would consider: AccessAny leaves start from a
// sequential scan, ordered and lookup leaves from nothing, and every
// configuration index then lowers the cost through IndexLeafCost with a
// strict <, in configuration order. It returns false when the
// configuration cannot satisfy the requirement (no covering index for an
// ordered or lookup access).
func (a *Analysis) AccessCost(rel int, req LeafReq, cfg *query.Config) (float64, bool) {
	best := math.Inf(1)
	if req.Mode == AccessAny {
		best = a.SeqScanCost(rel)
	}
	if cfg != nil {
		for _, ix := range cfg.Indexes {
			if c, ok := a.IndexLeafCost(rel, req, ix); ok && c < best {
				best = c
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// OrderedCols returns the relation's interesting orders coverable by the
// given configuration (those with a covering index present).
func (a *Analysis) OrderedCols(rel int, cfg *query.Config) []string {
	ri := &a.Rels[rel]
	var out []string
	for _, col := range ri.Interesting {
		if cfg == nil {
			continue
		}
		for _, ix := range cfg.Indexes {
			if ix.Table == ri.Table.Name && ix.Covers(col) {
				out = append(out, col)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// String summarises the analysis (handy in debug output and tests).
func (a *Analysis) String() string {
	return fmt.Sprintf("analysis(%s: %d rels, %d joins)", a.Q.Name, len(a.Rels), len(a.Q.Joins))
}
