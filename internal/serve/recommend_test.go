package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/storage"
)

// The e2ebench /recommend grid: every (budget, index cap) pair.
var (
	gridBudgets = []float64{0.5, 1, 2, 3, 5, 8}
	gridCaps    = []int{0, 2, 3, 5}
)

// TestRecommendGridMatchesOwnListsAndReference serves the whole budget ×
// cap grid, with and without weight overrides, from the set's shared
// lowering table. Every body must be byte-equal to an in-process
// advisor.Run over independently built caches — which builds its own
// lowering table — and to RunReference, engine counters included.
func TestRecommendGridMatchesOwnListsAndReference(t *testing.T) {
	f := newFixture(t)
	caches, err := core.BuildAll(f.analyses, f.star.Catalog, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	overrides := []WeightOverride{{Name: f.queries[0].Name, Weight: 2}, {Name: f.queries[3].Name, Weight: 0.5}, {Name: f.queries[6].Name, Weight: 5}}
	for _, weights := range [][]WeightOverride{nil, overrides} {
		ad := advisor.New(f.star.Catalog, f.star.Stats, 0)
		for i, q := range f.queries {
			w := 1.0
			for _, o := range weights {
				if o.Name == q.Name {
					w = o.Weight
				}
			}
			if err := ad.AddPrepared(q, f.analyses[i], caches[i], w); err != nil {
				t.Fatal(err)
			}
		}
		for _, budget := range gridBudgets {
			for _, maxIndexes := range gridCaps {
				label := fmt.Sprintf("budget=%g cap=%d overrides=%d", budget, maxIndexes, len(weights))
				req := RecommendRequest{BudgetGB: budget, MaxIndexes: maxIndexes, Weights: weights}
				data, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(f.ts.URL+"/recommend", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				var served bytes.Buffer
				served.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: %d %s", label, resp.StatusCode, served.Bytes())
				}

				ad.BudgetBytes = storage.BytesForGB(budget)
				ad.MaxIndexes = maxIndexes
				own, err := ad.Run()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := ad.RunReference()
				if err != nil {
					t.Fatal(err)
				}
				// The reference does no engine work; its body borrows the
				// engine block so the rest compares byte for byte.
				ref.Engine = own.Engine
				for name, res := range map[string]*advisor.Result{"own lists": own, "reference": ref} {
					want, err := EncodeJSON(RecommendResponseFrom(res, f.queries))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(served.Bytes(), want) {
						t.Fatalf("%s: served body differs from the in-process run over %s:\n%s\nwant:\n%s",
							label, name, served.Bytes(), want)
					}
				}
			}
		}
	}
}

// TestRecommendDeadlineStopsAtRoundBoundary pins /recommend cancellation:
// with every greedy round slowed past the request deadline, the request
// is a 504, it started fewer rounds than the full search needs, and no
// round starts after the response.
func TestRecommendDeadlineStopsAtRoundBoundary(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	rf := newReloadFixture(t, func(cfg *Config) { cfg.RequestTimeout = time.Second })
	rf.load(t)
	// A no-op delay turns on hit counting for the round point.
	if err := faultpoint.Set("advisor.round", "delay=0s"); err != nil {
		t.Fatal(err)
	}
	req := RecommendRequest{BudgetGB: 8}
	code, body := rf.do(t, http.MethodPost, "/recommend", req)
	if code != http.StatusOK {
		t.Fatalf("undelayed /recommend: %d %s", code, body)
	}
	var full RecommendResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	// The full search starts one round per pick plus the round that finds
	// no improvement.
	fullRounds := faultpoint.Count("advisor.round")
	if fullRounds != int64(full.Rounds)+1 || full.Rounds < 5 {
		t.Fatalf("full search: %d round starts for %d rounds; the test needs at least 5 rounds", fullRounds, full.Rounds)
	}

	if err := faultpoint.Set("advisor.round", "delay=400ms"); err != nil {
		t.Fatal(err)
	}
	code, body = rf.do(t, http.MethodPost, "/recommend", req)
	if code != http.StatusGatewayTimeout || !strings.Contains(string(body), "request abandoned") {
		t.Fatalf("deadline-expired /recommend: %d %s, want a 504 naming the abandoned request", code, body)
	}
	started := faultpoint.Count("advisor.round") - fullRounds
	if started < 1 || started >= int64(full.Rounds) {
		t.Fatalf("the expired search started %d rounds; want it stopped mid-search (full search: %d)", started, full.Rounds)
	}
	time.Sleep(800 * time.Millisecond)
	if after := faultpoint.Count("advisor.round") - fullRounds; after != started {
		t.Fatalf("%d rounds started after the 504 (%d before, %d after)", after-started, started, after)
	}
}
