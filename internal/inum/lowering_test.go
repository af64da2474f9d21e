package inum_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// loweringCounts tallies how often a lowering list changed its table, so
// the tests can prove they covered both outcomes.
type loweringCounts struct{ lowered, unchanged int }

// checkLowering resolves base into a table and compares, slot for slot,
// Lower(ix) with LowerFrom over ix's lowering list. It also checks that
// the list names each slot once and that Lowers reports exactly whether
// the list changed the table.
func checkLowering(t *testing.T, label string, c *inum.Cache, base *query.Config, ix *catalog.Index, n *loweringCounts) {
	t.Helper()
	tbl := c.Table(nil)
	c.Resolve(tbl, base)
	want := append([]float64(nil), tbl...)
	c.Lower(want, ix)

	slots, prices := c.AppendLowering(nil, nil, ix)
	if len(slots) != len(prices) {
		t.Fatalf("%s, %s: %d slots but %d prices", label, ix.Key(), len(slots), len(prices))
	}
	seen := make(map[int32]bool, len(slots))
	for _, s := range slots {
		if seen[s] {
			t.Fatalf("%s, %s: slot %d listed twice", label, ix.Key(), s)
		}
		seen[s] = true
	}
	got := append([]float64(nil), tbl...)
	inum.LowerFrom(got, slots, prices)
	changed := false
	for s := range want {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Fatalf("%s, %s, slot %d: list lowered to %v, Lower to %v", label, ix.Key(), s, got[s], want[s])
		}
		if math.Float64bits(got[s]) != math.Float64bits(tbl[s]) {
			changed = true
		}
	}
	if lowers := inum.Lowers(tbl, slots, prices); lowers != changed {
		t.Fatalf("%s, %s: Lowers = %v, but the list changed the table: %v", label, ix.Key(), lowers, changed)
	}
	if changed {
		n.lowered++
	} else {
		n.unchanged++
	}
}

// randomIndex draws a 1–3 column index over a random relation's
// query-referenced columns.
func randomIndex(t *testing.T, rng *rand.Rand, a *optimizer.Analysis, ws *whatif.Session) *catalog.Index {
	t.Helper()
	ri := &a.Rels[rng.Intn(len(a.Rels))]
	cols := append([]string(nil), ri.NeededCols...)
	rng.Shuffle(len(cols), func(x, y int) { cols[x], cols[y] = cols[y], cols[x] })
	if k := 1 + rng.Intn(3); k < len(cols) {
		cols = cols[:k]
	}
	ix := ws.Lookup(ri.Table.Name, cols...)
	if ix == nil {
		var err error
		if ix, err = ws.CreateIndex(ri.Table.Name, cols...); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestLoweringListMatchesLowerStar applies random candidates' lowering
// lists to random resolved configurations of every star-workload query,
// plus two self-join queries whose table owns two relations.
func TestLoweringListMatchesLowerStar(t *testing.T) {
	s, err := workload.StarSchema(1.0)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.Queries(42)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Catalog.Table("dim1_1")
	for i, orderCol := range []string{"a2", "a3"} {
		qs = append(qs, &query.Query{
			Name: fmt.Sprintf("SJ%d", i),
			Rels: []query.Rel{{Table: d, Alias: "e"}, {Table: d, Alias: "m"}},
			Joins: []query.Join{{
				Left:  query.ColRef{Rel: 0, Column: "a1"},
				Right: query.ColRef{Rel: 1, Column: "id"},
			}},
			Filters: []query.Filter{{
				Col: query.ColRef{Rel: 0, Column: "a2"}, Op: query.Between, Value: 1, Value2: 1000,
			}},
			Select:  []query.ColRef{{Rel: 0, Column: "id"}, {Rel: 1, Column: "a2"}},
			OrderBy: []query.ColRef{{Rel: 1, Column: orderCol}},
		})
	}
	ws := whatif.NewSession(s.Catalog)
	rng := rand.New(rand.NewSource(16))
	var n loweringCounts
	var all []*catalog.Index
	caches := make([]*inum.Cache, len(qs))
	analyses := make([]*optimizer.Analysis, len(qs))
	for qi, q := range qs {
		a, err := optimizer.NewAnalysis(q, s.Stats, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		if caches[qi], err = core.Build(a, whatif.NewSession(s.Catalog)); err != nil {
			t.Fatal(err)
		}
		analyses[qi] = a
		for k := 0; k < 8; k++ {
			all = append(all, randomIndex(t, rng, a, ws))
		}
	}
	for qi, c := range caches {
		bases := []*query.Config{nil}
		for k := 0; k < 6; k++ {
			cfg, err := workload.RandomAtomicConfig(rng, analyses[qi], ws, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, cfg)
		}
		// Every query sees every candidate: those on its own tables and
		// those elsewhere, whose lists must be empty.
		for _, base := range bases {
			for _, ix := range all {
				checkLowering(t, qs[qi].Name, c, base, ix, &n)
			}
		}
	}
	if n.lowered == 0 || n.unchanged == 0 {
		t.Fatalf("vacuous: %d lowering and %d no-op lists", n.lowered, n.unchanged)
	}
}

// TestLoweringListMatchesLowerShapes repeats the check on every join
// topology the shape generator produces, with candidates drawn from the
// shapes' own random configurations.
func TestLoweringListMatchesLowerShapes(t *testing.T) {
	specs := []workload.ShapeSpec{
		{Shape: workload.ShapeChain, Rels: 5, Seed: 3},
		{Shape: workload.ShapeCycle, Rels: 5, Seed: 3},
		{Shape: workload.ShapeSnowflake, Rels: 6, Seed: 3},
		{Shape: workload.ShapeStar, Rels: 5, Seed: 3},
		{Shape: workload.ShapeClique, Rels: 4, Seed: 3},
		{Shape: workload.ShapeRandom, Rels: 6, Density: 0.4, Seed: 3},
	}
	rng := rand.New(rand.NewSource(17))
	var n loweringCounts
	for _, spec := range specs {
		cat, q, err := workload.ShapeQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Build(a, whatif.NewSession(cat))
		if err != nil {
			t.Fatal(err)
		}
		bases := workload.ShapeConfigs(rng, cat, q, 6)
		var cands []*catalog.Index
		for _, cfg := range workload.ShapeConfigs(rng, cat, q, 6) {
			cands = append(cands, cfg.Indexes...)
		}
		label := fmt.Sprintf("%s/%d", spec.Shape, spec.Rels)
		for _, base := range append(bases, nil) {
			for _, ix := range cands {
				checkLowering(t, label, c, base, ix, &n)
			}
		}
	}
	if n.lowered == 0 || n.unchanged == 0 {
		t.Fatalf("vacuous: %d lowering and %d no-op lists", n.lowered, n.unchanged)
	}
}

// TestLowersFalseLeavesTableUnchanged pins the fold-skip premise
// directly: once an index is folded into a table, its own list lowers
// nothing more, and applying it leaves every slot bit-for-bit unchanged.
func TestLowersFalseLeavesTableUnchanged(t *testing.T) {
	q := loadQ10(t)
	c := q.cache
	for _, ix := range q.pool {
		tbl := c.Table(nil)
		c.Resolve(tbl, &query.Config{Indexes: []*catalog.Index{ix}})
		slots, prices := c.AppendLowering(nil, nil, ix)
		if len(slots) == 0 {
			t.Fatalf("%s: all-orders index prices no slot of its own query", ix.Key())
		}
		if inum.Lowers(tbl, slots, prices) {
			t.Fatalf("%s: list still lowers a table it was already folded into", ix.Key())
		}
		again := append([]float64(nil), tbl...)
		inum.LowerFrom(again, slots, prices)
		for s := range tbl {
			if math.Float64bits(again[s]) != math.Float64bits(tbl[s]) {
				t.Fatalf("%s, slot %d: %v became %v", ix.Key(), s, tbl[s], again[s])
			}
		}
	}
}
