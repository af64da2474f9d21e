package advisor

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/pinumdb/pinum/internal/costmatrix"
	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/storage"
)

func (ad *Advisor) caches() []*inum.Cache {
	out := make([]*inum.Cache, len(ad.queries))
	for i, qs := range ad.queries {
		out[i] = qs.Cache
	}
	return out
}

// TestSharedLoweringsMatchOwn runs the same searches once with a shared
// lowering table, as the serving layer does, and once with the table each
// run builds for itself: results and engine counters are identical, and
// both match the reference.
func TestSharedLoweringsMatchOwn(t *testing.T) {
	_, own, _ := setup(t, 5, 6)
	own.GenerateCandidates()
	shared := New(own.cat, own.st, own.BudgetBytes)
	for _, qs := range own.queries {
		if err := shared.AddPrepared(qs.Query, qs.A, qs.Cache, qs.Weight); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range own.Candidates() {
		shared.AddCandidate(ix)
	}
	shared.UseLowerings(costmatrix.BuildLowerings(shared.caches(), shared.Candidates()))
	for _, budget := range []float64{0.5, 2, 5} {
		for _, maxIndexes := range []int{0, 2} {
			label := fmt.Sprintf("budget=%g cap=%d", budget, maxIndexes)
			for _, ad := range []*Advisor{own, shared} {
				ad.BudgetBytes = storage.BytesForGB(budget)
				ad.MaxIndexes = maxIndexes
			}
			got, err := shared.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := own.Run()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := own.RunReference()
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalResults(t, label+" shared/own", got, want)
			assertIdenticalResults(t, label+" shared/reference", got, ref)
			if got.Engine != want.Engine {
				t.Errorf("%s: shared-table engine %+v, own-table engine %+v", label, got.Engine, want.Engine)
			}
		}
	}
}

// TestUseLoweringsRejectsForeignTable checks Run refuses a shared table
// that was not built over the advisor's own caches and candidates.
func TestUseLoweringsRejectsForeignTable(t *testing.T) {
	_, ad, _ := setup(t, 5, 3)
	ad.GenerateCandidates()
	cands := ad.Candidates()
	ad.UseLowerings(costmatrix.BuildLowerings(ad.caches(), cands[1:]))
	if _, err := ad.Run(); err == nil {
		t.Fatal("Run accepted a table built over other candidates")
	}
	_, other, _ := setup(t, 5, 3)
	ad.UseLowerings(costmatrix.BuildLowerings(other.caches(), cands))
	if _, err := ad.Run(); err == nil {
		t.Fatal("Run accepted a table built over other caches")
	}
	ad.UseLowerings(costmatrix.BuildLowerings(ad.caches(), cands))
	if _, err := ad.Run(); err != nil {
		t.Fatalf("Run refused its own table: %v", err)
	}
}

// TestRunContextCancelled checks a run whose context is already done
// starts no round and returns the context's error.
func TestRunContextCancelled(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Set("advisor.round", "delay=0s"); err != nil {
		t.Fatal(err)
	}
	_, ad, _ := setup(t, 5, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := faultpoint.Count("advisor.round")
	if _, err := ad.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if started := faultpoint.Count("advisor.round") - before; started != 0 {
		t.Fatalf("cancelled run started %d rounds", started)
	}
	res, err := ad.RunContext(context.Background())
	if err != nil || res.Rounds == 0 {
		t.Fatalf("live run after a cancelled one: %v rounds, %v", res, err)
	}
	if started := faultpoint.Count("advisor.round") - before; started != int64(res.Rounds)+1 {
		t.Fatalf("a %d-round run started %d rounds, want one per pick plus the final one", res.Rounds, started)
	}
}
