package costmatrix

import (
	"math"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/inum"
)

func newListedEngine(t testing.TB, caches []*inum.Cache, weights []float64, low *Lowerings) *Engine {
	t.Helper()
	specs := make([]Query, len(caches))
	for i, c := range caches {
		specs[i] = Query{Cache: c, Weight: weights[i]}
	}
	e, err := NewListed(specs, low)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestListedMatchesUnlisted walks a pick sequence on two engines over the
// same workload: one prices candidates from a shared Lowerings table by
// ordinal, the other prices each index on the spot. Every evaluation,
// every committed state and every work counter must agree, and sampled
// evaluations must equal re-pricing from scratch.
func TestListedMatchesUnlisted(t *testing.T) {
	s, caches, weights := setup(t, 6)
	pool := candidatePool(t, s)
	low := BuildLowerings(caches, pool)
	listed := newListedEngine(t, caches, weights, low)
	plain := newEngine(t, caches, weights)

	var applied []*catalog.Index
	for step, pick := range []int{0, 5, 17, 3} {
		for c, ix := range pool {
			got, want := listed.Evaluate(c), plain.EvaluateCandidate(ix)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d, candidate %s: listed %v != unlisted %v", step, ix.Name, got, want)
			}
			if c%11 == 0 {
				naive := naiveWorkloadCost(t, caches, weights, append(applied[:len(applied):len(applied)], ix))
				if math.Float64bits(got) != math.Float64bits(naive) {
					t.Fatalf("step %d, candidate %s: listed %v != naive %v", step, ix.Name, got, naive)
				}
			}
		}
		listed.Commit(pick)
		plain.Apply(pool[pick])
		applied = append(applied, pool[pick])
		if math.Float64bits(listed.TotalCost()) != math.Float64bits(plain.TotalCost()) {
			t.Fatalf("step %d: committed totals %v != %v", step, listed.TotalCost(), plain.TotalCost())
		}
	}
	if ls, ps := listed.Stats(), plain.Stats(); ls != ps {
		t.Fatalf("listed stats %+v != unlisted %+v", ls, ps)
	}
	st := listed.Stats()
	if st.FoldSkips == 0 || st.PlanEvals == 0 {
		t.Fatalf("vacuous: %+v", st)
	}
	chosen := listed.Chosen()
	for i, ix := range applied {
		if chosen[i] != ix {
			t.Fatalf("pick %d: listed engine chose %s, want %s", i, chosen[i].Name, ix.Name)
		}
	}
}

// TestCommittedCandidateSkipsItsFolds pins the fold skip from the other
// side: once a candidate is committed, its own list lowers nothing, so
// re-evaluating it folds no plan and returns the committed total.
func TestCommittedCandidateSkipsItsFolds(t *testing.T) {
	s, caches, weights := setup(t, 4)
	pool := candidatePool(t, s)
	e := newListedEngine(t, caches, weights, BuildLowerings(caches, pool))
	pick := -1
	for c, ix := range pool {
		if ix.Name == "cand_fact_a1" {
			pick = c
		}
	}
	if pick < 0 {
		t.Fatal("no cand_fact_a1 in the pool")
	}
	e.Commit(pick)
	before := e.Stats()
	if got := e.Evaluate(pick); math.Float64bits(got) != math.Float64bits(e.TotalCost()) {
		t.Fatalf("re-evaluating the pick: %v, committed total %v", got, e.TotalCost())
	}
	after := e.Stats()
	if after.PlanEvals != before.PlanEvals {
		t.Errorf("re-evaluating the pick folded %d plans", after.PlanEvals-before.PlanEvals)
	}
	if d := after.FoldSkips - before.FoldSkips; d != int64(len(caches)) || after.QueryEvals-before.QueryEvals != d {
		t.Errorf("re-evaluating a fact pick skipped %d folds over %d query evals, want %d of each",
			d, after.QueryEvals-before.QueryEvals, len(caches))
	}
}

// TestEvaluateListedAllocFree is the pin behind Evaluate's
// //pinum:allocfree directive.
func TestEvaluateListedAllocFree(t *testing.T) {
	s, caches, weights := setup(t, 10)
	pool := candidatePool(t, s)
	e := newListedEngine(t, caches, weights, BuildLowerings(caches, pool))
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		e.Evaluate(i % len(pool))
		i++
	}); n != 0 {
		t.Fatalf("Evaluate allocated %v times per op, want 0", n)
	}
}

// TestLoweringsIdentity checks BuiltOver compares caches and candidates
// by identity and order, and that NewListed refuses a table built over
// other caches.
func TestLoweringsIdentity(t *testing.T) {
	s, caches, weights := setup(t, 3)
	pool := candidatePool(t, s)
	low := BuildLowerings(caches, pool)
	if !low.BuiltOver(caches, pool) {
		t.Fatal("table does not recognise its own caches and candidates")
	}
	if low.BuiltOver(caches, pool[1:]) || low.BuiltOver(caches[:2], pool) {
		t.Fatal("table accepted a shorter candidate or cache list")
	}
	swapped := append([]*catalog.Index(nil), pool...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if low.BuiltOver(caches, swapped) {
		t.Fatal("table accepted reordered candidates")
	}
	if low.Bytes() <= 0 {
		t.Fatalf("table reports %d bytes", low.Bytes())
	}
	_, others, _ := setup(t, 3)
	specs := make([]Query, len(others))
	for i, c := range others {
		specs[i] = Query{Cache: c, Weight: weights[i]}
	}
	if _, err := NewListed(specs, low); err == nil {
		t.Fatal("NewListed accepted a table built over other caches")
	}
}
