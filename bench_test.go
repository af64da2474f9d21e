// Benchmarks regenerating the paper's tables and figures. One benchmark
// per experiment (E1–E5, see DESIGN.md §4), plus ablation benches for the
// design choices the paper discusses: INUM vs PINUM construction, the
// coarse vs precise nested-loop pruning of §V-D, and the cost of one cache
// lookup versus one optimizer call.
//
// Run with: go test -bench=. -benchmem
package pinum

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/experiments"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// benchEnv caches the shared environment across benchmarks.
var benchEnv *experiments.Env

func env(b *testing.B) *experiments.Env {
	b.Helper()
	if benchEnv == nil {
		e, err := experiments.NewEnv(42)
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = e
	}
	return benchEnv
}

func analysis(b *testing.B, e *experiments.Env, q *query.Query) *optimizer.Analysis {
	b.Helper()
	a, err := optimizer.NewAnalysis(q, e.Star.Stats, optimizer.DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkE1WhatIfAccuracy regenerates §VI-B: each iteration runs the full
// 50-trial what-if accuracy experiment.
func BenchmarkE1WhatIfAccuracy(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE1(e, 50)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("avg err %.3f%%, max err %.3f%%", 100*r.AvgError, 100*r.MaxError)
		}
	}
}

// BenchmarkE2CostAccuracy regenerates §VI-C at reduced trial count per
// iteration (the full 1000-config version runs via cmd/pinum-bench).
func BenchmarkE2CostAccuracy(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE2(e, 100, e.Queries[:6])
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE3CacheConstruction regenerates Fig. 4/5 (per-query INUM vs
// PINUM construction and access-cost collection times).
func BenchmarkE3CacheConstruction(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE3(e, e.Queries)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE4IndexSelection regenerates Fig. 6/7: greedy selection under a
// 5 GB budget plus real executions on a scaled materialisation.
func BenchmarkE4IndexSelection(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE4(e, 0.0005, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkE5Redundancy regenerates the §IV analysis.
func BenchmarkE5Redundancy(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE5(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r)
		}
	}
}

// BenchmarkCacheBuild compares plan-cache construction per query and
// method: the two bar groups of Fig. 4, directly as sub-benchmarks.
func BenchmarkCacheBuild(b *testing.B) {
	e := env(b)
	for _, q := range e.Queries {
		q := q
		b.Run(fmt.Sprintf("%s-tables=%d/INUM", q.Name, len(q.Rels)), func(b *testing.B) {
			a := analysis(b, e, q)
			for i := 0; i < b.N; i++ {
				if _, err := inum.Build(a, whatif.NewSession(e.Star.Catalog)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s-tables=%d/PINUM", q.Name, len(q.Rels)), func(b *testing.B) {
			a := analysis(b, e, q)
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(a, whatif.NewSession(e.Star.Catalog)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdvisorParallel compares the serial and parallel workload paths
// of the §V-E advisor: batch plan-cache construction (AddQueries) and the
// greedy candidate search (Run), each at Parallelism 1 versus all CPUs.
// Results are bit-identical at every setting; only wall-clock differs.
func BenchmarkAdvisorParallel(b *testing.B) {
	e := env(b)
	modes := []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	}
	for _, m := range modes {
		m := m
		b.Run("build/"+m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ad := advisor.New(e.Star.Catalog, e.Star.Stats, storage.BytesForGB(5))
				ad.Parallelism = m.par
				if err := ad.AddQueries(e.Queries, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range modes {
		m := m
		b.Run("greedy/"+m.name, func(b *testing.B) {
			ad := advisor.New(e.Star.Catalog, e.Star.Stats, storage.BytesForGB(5))
			ad.Parallelism = m.par
			if err := ad.AddQueries(e.Queries, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ad.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyWideCandidates measures the tentpole refactor: greedy
// selection over a wide candidate set (one single-column candidate per
// attribute column of every table, >100 in all) where most queries never
// touch a given candidate's table. "incremental" runs the costmatrix
// engine (Advisor.Run): each evaluation re-prices only the plans on the
// candidate's table, folding the candidate into the stored per-relation
// minima. "full-reprice" is the pre-engine search (Advisor.RunReference):
// every query × plan × leaf × chosen-index walk, per candidate, per round.
// Both return bit-identical results; only the arithmetic volume differs.
func BenchmarkGreedyWideCandidates(b *testing.B) {
	e := env(b)
	mk := func() *advisor.Advisor {
		ad := advisor.New(e.Star.Catalog, e.Star.Stats, storage.BytesForGB(5))
		ad.Parallelism = 1 // isolate the algorithmic speedup from the pool
		if err := ad.AddQueries(e.Queries, nil); err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, t := range e.Star.Catalog.Tables() {
			for _, col := range t.Columns {
				if col.Name == "id" || strings.HasPrefix(col.Name, "fk_") {
					continue
				}
				ad.AddCandidate(storage.HypotheticalIndex(
					fmt.Sprintf("cand_%s_%s", t.Name, col.Name), t, []string{col.Name}))
				n++
			}
		}
		if n < 100 {
			b.Fatalf("only %d candidates, the wide-set benchmark needs >= 100", n)
		}
		return ad
	}
	b.Run("incremental", func(b *testing.B) {
		ad := mk()
		b.ResetTimer()
		var res *advisor.Result
		for i := 0; i < b.N; i++ {
			r, err := ad.Run()
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.ReportMetric(float64(res.Engine.QueryEvals), "deltas")
		b.ReportMetric(float64(res.Engine.QuerySkips), "skips")
	})
	b.Run("full-reprice", func(b *testing.B) {
		ad := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ad.RunReference(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchCacheBuild measures the whole-workload cache construction
// path (core.BuildAll) at increasing worker counts.
func BenchmarkBatchCacheBuild(b *testing.B) {
	e := env(b)
	analyses := make([]*optimizer.Analysis, len(e.Queries))
	for i, q := range e.Queries {
		analyses[i] = analysis(b, e, q)
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildAll(analyses, e.Star.Catalog, workers, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizeExportAll measures one PINUM cache-construction
// optimizer call (ExportAll under the all-orders configuration, nested
// loops on — the heavier of core.Build's two calls) per query size, fast
// planner vs the retained reference planner. Both produce bit-identical
// results (see internal/optimizer's equivalence suite); only the work
// differs: clause bitsets vs per-split rescans, a dense DP table vs a
// map, interned plan keys vs strings, bucketed vs all-pairs subsumption,
// and deferred vs eager path materialisation.
func BenchmarkOptimizeExportAll(b *testing.B) {
	e := env(b)
	opt := optimizer.Options{EnableNestLoop: true, ExportAll: true}
	seen := map[int]bool{}
	for _, q := range e.Queries {
		if seen[len(q.Rels)] {
			continue // one representative per query size
		}
		seen[len(q.Rels)] = true
		a := analysis(b, e, q)
		cfg, err := inum.AllOrdersConfig(a, whatif.NewSession(e.Star.Catalog))
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			call func(*optimizer.Analysis, *query.Config, optimizer.Options) (*optimizer.Result, error)
		}{
			{"fast", optimizer.Optimize},
			{"reference", optimizer.OptimizeReference},
		} {
			mode := mode
			b.Run(fmt.Sprintf("tables=%d/%s", len(q.Rels), mode.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := mode.call(a, cfg, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOptimizeExportAllShapes measures the same cache-construction
// call on the workload shapes whose join graphs the dense DP sweep handled
// worst: the 7-relation chain and snowflake enumerate 56 and 84 csg-cmp
// pairs where the dense sweep walked 966 splits (plus 99 and 91 dead
// masks). The fast/reference gap here is the PR 4 headline; the star
// workload above bounds it from below (every fact-dimension subset is
// connected, so connectivity-awareness saves the least).
func BenchmarkOptimizeExportAllShapes(b *testing.B) {
	opt := optimizer.Options{EnableNestLoop: true, ExportAll: true}
	for _, shape := range []struct {
		label string
		spec  workload.ShapeSpec
	}{
		{"chain", workload.ShapeSpec{Shape: workload.ShapeChain, Rels: 7, Seed: 42}},
		{"snowflake", workload.ShapeSpec{Shape: workload.ShapeSnowflake, Rels: 7, Seed: 42}},
		// clique-dense exercises the retained-path bookkeeping (the
		// §V-D subsumption frontier) rather than the DP walk: every
		// relation subset is connected, so DPccp saves nothing and the
		// per-relation path population is maximal.
		{"clique-dense", workload.ShapeSpec{Shape: workload.ShapeClique, Rels: 5, Density: 1, Seed: 42}},
	} {
		spec := shape.spec
		cat, q, err := workload.ShapeQuery(spec)
		if err != nil {
			b.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			b.Fatal(err)
		}
		cfg := workload.ShapeAllOrdersConfig(cat, q)
		for _, mode := range []struct {
			name string
			call func(*optimizer.Analysis, *query.Config, optimizer.Options) (*optimizer.Result, error)
		}{
			{"fast", optimizer.Optimize},
			{"reference", optimizer.OptimizeReference},
		} {
			mode := mode
			b.Run(fmt.Sprintf("shape=%s/tables=%d/%s", shape.label, len(q.Rels), mode.name), func(b *testing.B) {
				b.ReportAllocs()
				var states int
				for i := 0; i < b.N; i++ {
					res, err := mode.call(a, cfg, opt)
					if err != nil {
						b.Fatal(err)
					}
					states = res.Stats.EnumStates
				}
				b.ReportMetric(float64(states), "dp-states")
			})
		}
	}
}

// BenchmarkOptimizeExportAllWide measures the wide-key fast-path lane:
// queries outside the packed planKey invariants (>16 relations, >63
// interesting orders per relation) that previously fell back to the ~4x
// slower reference sweep. The 17-relation wide chain indexes only its head
// relations — ExportAll's retained set is an antichain over per-relation
// leaf choices, so indexing every relation would make it exponential in
// the chain length in any planner — and runs fast-only (the reference
// sweep caps at 16 relations); wide-orders stays within the reference's
// reach and benchmarks both planners.
func BenchmarkOptimizeExportAllWide(b *testing.B) {
	opt := optimizer.Options{EnableNestLoop: true, ExportAll: true}

	bench := func(name string, a *optimizer.Analysis, cfg *query.Config,
		call func(*optimizer.Analysis, *query.Config, optimizer.Options) (*optimizer.Result, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				res, err := call(a, cfg, opt)
				if err != nil {
					b.Fatal(err)
				}
				states = res.Stats.EnumStates
			}
			b.ReportMetric(float64(states), "dp-states")
		})
	}

	{
		cat, q, err := workload.ShapeQuery(workload.ShapeSpec{Shape: workload.ShapeWideChain, Rels: 17, Seed: 93})
		if err != nil {
			b.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			b.Fatal(err)
		}
		full := workload.ShapeAllOrdersConfig(cat, q)
		cfg := &query.Config{}
		head := map[string]bool{q.Rels[0].Table.Name: true, q.Rels[1].Table.Name: true, q.Rels[2].Table.Name: true}
		for _, ix := range full.Indexes {
			if head[ix.Table] {
				cfg.Indexes = append(cfg.Indexes, ix)
			}
		}
		bench(fmt.Sprintf("shape=wide-chain/tables=%d/fast", len(q.Rels)), a, cfg, optimizer.Optimize)
	}

	{
		cat, q, err := workload.ShapeQuery(workload.ShapeSpec{Shape: workload.ShapeWideOrders, Seed: 91})
		if err != nil {
			b.Fatal(err)
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			b.Fatal(err)
		}
		cfg := workload.ShapeAllOrdersConfig(cat, q)
		bench(fmt.Sprintf("shape=wide-orders/tables=%d/fast", len(q.Rels)), a, cfg, optimizer.Optimize)
		bench(fmt.Sprintf("shape=wide-orders/tables=%d/reference", len(q.Rels)), a, cfg, optimizer.OptimizeReference)
	}
}

// BenchmarkAblationNLJPruning compares the paper's default coarse
// nested-loop pruning against the §V-D high-accuracy refinement ("a bigger
// plan cache and slower cost lookup").
func BenchmarkAblationNLJPruning(b *testing.B) {
	e := env(b)
	q := e.Queries[8] // the 6-way join
	for _, mode := range []struct {
		name  string
		build func(*optimizer.Analysis, *whatif.Session) (*inum.Cache, error)
	}{
		{"coarse", core.Build},
		{"precise", core.BuildPrecise},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			a := analysis(b, e, q)
			var plans int
			for i := 0; i < b.N; i++ {
				c, err := mode.build(a, whatif.NewSession(e.Star.Catalog))
				if err != nil {
					b.Fatal(err)
				}
				plans = c.Stats.PlansCached
			}
			b.ReportMetric(float64(plans), "plans")
		})
	}
}

// BenchmarkCostLookupVsOptimizerCall quantifies the paper's motivation: a
// cache lookup replaces an optimizer call at a fraction of the cost.
func BenchmarkCostLookupVsOptimizerCall(b *testing.B) {
	e := env(b)
	q := e.Queries[6] // 5-way join
	a := analysis(b, e, q)
	cache, err := core.Build(a, whatif.NewSession(e.Star.Catalog))
	if err != nil {
		b.Fatal(err)
	}
	ws := whatif.NewSession(e.Star.Catalog)
	rng := rand.New(rand.NewSource(3))
	cfgs := make([]*query.Config, 64)
	for i := range cfgs {
		cfg, err := workload.RandomAtomicConfig(rng, a, ws, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		cfgs[i] = cfg
	}
	b.Run("cache-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cache.Cost(cfgs[i%len(cfgs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimizer-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optimizer.Optimize(a, cfgs[i%len(cfgs)], optimizer.Options{EnableNestLoop: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAccessCostCollection compares §V-C's batch access-cost hook
// against the naive one-call-per-index loop.
func BenchmarkAccessCostCollection(b *testing.B) {
	e := env(b)
	q := e.Queries[8]
	a := analysis(b, e, q)
	ws := whatif.NewSession(e.Star.Catalog)
	if _, _, err := workload.CandidateIndexes(a, ws); err != nil {
		b.Fatal(err)
	}
	cands := ws.Indexes()
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inum.CollectAccessCostsNaive(a, cands)
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.CollectAccessCosts(a, cands)
		}
	})
}

// BenchmarkSlimCacheBuild compares tree-backed and slim cache
// construction on the widest workload query (the costs are identical;
// slim drops the retained trees at export time).
func BenchmarkSlimCacheBuild(b *testing.B) {
	e := env(b)
	q := e.Queries[9] // 7-way join
	a := analysis(b, e, q)
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(a, whatif.NewSession(e.Star.Catalog)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("slim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildSlim(a, whatif.NewSession(e.Star.Catalog)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotRoundTrip measures the persistence codec: encoding the
// whole workload's slim caches and loading them back (decode + cache
// reconstruction), the work a serving process does once at startup.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	e := env(b)
	analyses := make([]*optimizer.Analysis, len(e.Queries))
	for i, q := range e.Queries {
		analyses[i] = analysis(b, e, q)
	}
	slims, err := core.BuildAllSlim(analyses, e.Star.Catalog, 0)
	if err != nil {
		b.Fatal(err)
	}
	snap := &plancache.Snapshot{}
	for _, c := range slims {
		snap.Queries = append(snap.Queries, plancache.FromCache(c))
	}
	var buf bytes.Buffer
	if err := plancache.Encode(&buf, snap); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := plancache.Encode(&w, snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dec, err := plancache.Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			for qi := range dec.Queries {
				if _, err := plancache.ToCache(analyses[qi], dec.Queries[qi]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkServeWhatIf fires concurrent /whatif requests at a server
// running on snapshot-loaded slim caches — the serving layer's request
// path end to end.
func BenchmarkServeWhatIf(b *testing.B) {
	e := env(b)
	analyses := make([]*optimizer.Analysis, len(e.Queries))
	for i, q := range e.Queries {
		analyses[i] = analysis(b, e, q)
	}
	caches, err := core.BuildAllSlim(analyses, e.Star.Catalog, 0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Catalog:  e.Star.Catalog,
		Stats:    e.Star.Stats,
		Queries:  e.Queries,
		Analyses: analyses,
		Caches:   caches,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := []byte(`{"indexes":[{"table":"fact","columns":["fk_dim1_1","m1"]},{"table":"dim1_1","columns":["a1","id"]}]}`)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/whatif", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				b.Fatalf("/whatif status %d", resp.StatusCode)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
	})
}

// recommendGrid is the /recommend parameter grid e2ebench's advise
// workload cycles: every (budget, index cap) pair.
func recommendGrid() []serve.RecommendRequest {
	var grid []serve.RecommendRequest
	for _, maxIndexes := range []int{0, 2, 3, 5} {
		for _, budget := range []float64{0.5, 1, 2, 3, 5, 8} {
			grid = append(grid, serve.RecommendRequest{BudgetGB: budget, MaxIndexes: maxIndexes})
		}
	}
	return grid
}

// BenchmarkServeRecommend runs Server.Recommend over the 24-point budget ×
// cap grid, one request per op, on a snapshot-loaded slim set whose
// candidate lowering table one untimed request has already built: the
// per-request greedy search /recommend serves, without HTTP.
func BenchmarkServeRecommend(b *testing.B) {
	e := env(b)
	analyses := make([]*optimizer.Analysis, len(e.Queries))
	for i, q := range e.Queries {
		analyses[i] = analysis(b, e, q)
	}
	slims, err := core.BuildAllSlim(analyses, e.Star.Catalog, 0)
	if err != nil {
		b.Fatal(err)
	}
	snap := &plancache.Snapshot{}
	for _, c := range slims {
		snap.Queries = append(snap.Queries, plancache.FromCache(c))
	}
	var buf bytes.Buffer
	if err := plancache.Encode(&buf, snap); err != nil {
		b.Fatal(err)
	}
	dec, err := plancache.Decode(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	caches := make([]*inum.Cache, len(dec.Queries))
	for qi := range dec.Queries {
		if caches[qi], err = plancache.ToCache(analyses[qi], dec.Queries[qi]); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := serve.New(serve.Config{
		Catalog:  e.Star.Catalog,
		Stats:    e.Star.Stats,
		Queries:  e.Queries,
		Analyses: analyses,
		Caches:   caches,
		Workers:  1,
	})
	if err != nil {
		b.Fatal(err)
	}
	grid := recommendGrid()
	if _, err := srv.Recommend(&grid[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Recommend(&grid[i%len(grid)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTenantColdLoad measures one tenant's disk-snapshot cold load
// through the serving layer's public API, the environment loader
// included: two tenants share a residency cap of one, so every request
// evicts the other tenant and cold-loads its own set from its snapshot
// file. The per-request /whatif on the empty configuration is noise next
// to the load.
func BenchmarkTenantColdLoad(b *testing.B) {
	dir := b.TempDir()
	loader := func() (*serve.Environment, error) {
		e, err := experiments.NewEnv(42)
		if err != nil {
			return nil, err
		}
		analyses := make([]*optimizer.Analysis, len(e.Queries))
		for i, q := range e.Queries {
			if analyses[i], err = optimizer.NewAnalysis(q, e.Star.Stats, optimizer.DefaultCostParams()); err != nil {
				return nil, err
			}
		}
		return &serve.Environment{Catalog: e.Star.Catalog, Stats: e.Star.Stats, Queries: e.Queries, Analyses: analyses}, nil
	}
	names := []string{"a", "b"}
	cfg := serve.Config{MaxResident: 1}
	for _, name := range names {
		cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{
			Name: name, Loader: loader, SnapshotPath: filepath.Join(dir, name+".pcache"),
		})
	}
	srv, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	// The first load of each tenant rebuilds and writes its snapshot.
	for _, name := range names {
		if _, err := srv.WhatIf(&serve.WhatIfRequest{Tenant: name}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.WhatIf(&serve.WhatIfRequest{Tenant: names[i%2]}); err != nil {
			b.Fatal(err)
		}
	}
}
