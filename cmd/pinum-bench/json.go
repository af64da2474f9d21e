// The -json mode: run the core performance suite through testing.Benchmark
// and emit a machine-readable BENCH_<label>.json, so CI can archive one
// artifact per run and the perf trajectory (ns/op, allocs/op) is tracked
// across PRs instead of eyeballed from logs.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/experiments"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// benchRecord is one benchmark's measurement in the JSON artifact.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// plannerTotals are the aggregated planner work counters from building
// the suite's slim cache set — the enumeration/frontier numbers the
// serving layer exports per tenant, archived here so planner-efficiency
// drift is visible across PRs next to the timing data.
type plannerTotals struct {
	EnumStates        int64 `json:"enum_states"`
	FrontierInserts   int64 `json:"frontier_inserts"`
	FrontierDrops     int64 `json:"frontier_drops"`
	FrontierEvictions int64 `json:"frontier_evictions"`
}

// benchReport is the BENCH_<label>.json document.
type benchReport struct {
	Label      string         `json:"label"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"num_cpu"`
	Timestamp  time.Time      `json:"timestamp"`
	Benchmarks []benchRecord  `json:"benchmarks"`
	Planner    *plannerTotals `json:"planner_totals,omitempty"`
}

// runJSONBench executes the perf suite and writes BENCH_<label>.json to the
// working directory, returning the path written.
func runJSONBench(label string, seed int64) (string, error) {
	env, err := experiments.NewEnv(seed)
	if err != nil {
		return "", err
	}
	rep := &benchReport{
		Label:     label,
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC(),
	}

	var failed []string
	measure := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		// b.Fatal inside the closure aborts the run but testing.Benchmark
		// still returns a zero result; record the failure instead of
		// archiving a 0 ns/op data point with a green exit status.
		if r.N == 0 {
			failed = append(failed, name)
			return
		}
		rep.Benchmarks = append(rep.Benchmarks, benchRecord{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "  %-55s %12.0f ns/op %8d allocs/op\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp())
	}

	// One representative query per join size: the ExportAll call under the
	// all-orders configuration (the heavier of core.Build's two calls),
	// fast planner vs the retained reference planner — the PR 3 headline.
	seen := map[int]bool{}
	for _, q := range env.Queries {
		if seen[len(q.Rels)] {
			continue
		}
		seen[len(q.Rels)] = true
		a, err := optimizer.NewAnalysis(q, env.Star.Stats, optimizer.DefaultCostParams())
		if err != nil {
			return "", err
		}
		cfg, err := inum.AllOrdersConfig(a, whatif.NewSession(env.Star.Catalog))
		if err != nil {
			return "", err
		}
		opt := optimizer.Options{EnableNestLoop: true, ExportAll: true}
		for _, mode := range []struct {
			name string
			call func(*optimizer.Analysis, *query.Config, optimizer.Options) (*optimizer.Result, error)
		}{
			{"fast", optimizer.Optimize},
			{"reference", optimizer.OptimizeReference},
		} {
			call := mode.call
			measure(fmt.Sprintf("OptimizeExportAll/tables=%d/%s", len(q.Rels), mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := call(a, cfg, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		// Whole-cache construction for the same query (two fast calls).
		measure(fmt.Sprintf("CacheBuild/tables=%d/PINUM", len(q.Rels)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(a, whatif.NewSession(env.Star.Catalog)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Shape workloads: the chain and snowflake ExportAll calls the
	// connectivity-aware enumeration (DPccp) targets — their join graphs
	// are where the dense sweep wasted the most states. The dense clique
	// and wide-orders shapes stress the other two planner layers: the
	// retained-path dominance frontier (every subset connected, maximal
	// per-relation path population) and the wide-key fast-path lane
	// (interesting-order count past the packed planKey's 63-order cap).
	for _, shape := range []struct {
		label string
		spec  workload.ShapeSpec
	}{
		{"chain", workload.ShapeSpec{Shape: workload.ShapeChain, Rels: 7, Seed: seed}},
		{"snowflake", workload.ShapeSpec{Shape: workload.ShapeSnowflake, Rels: 7, Seed: seed}},
		{"clique-dense", workload.ShapeSpec{Shape: workload.ShapeClique, Rels: 5, Density: 1, Seed: seed}},
		{"wide-orders", workload.ShapeSpec{Shape: workload.ShapeWideOrders, Seed: seed}},
	} {
		spec := shape.spec
		cat, q, err := workload.ShapeQuery(spec)
		if err != nil {
			return "", err
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			return "", err
		}
		cfg := workload.ShapeAllOrdersConfig(cat, q)
		opt := optimizer.Options{EnableNestLoop: true, ExportAll: true}
		for _, mode := range []struct {
			name string
			call func(*optimizer.Analysis, *query.Config, optimizer.Options) (*optimizer.Result, error)
		}{
			{"fast", optimizer.Optimize},
			{"reference", optimizer.OptimizeReference},
		} {
			call := mode.call
			measure(fmt.Sprintf("OptimizeExportAll/shape=%s/tables=%d/%s", shape.label, len(q.Rels), mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := call(a, cfg, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	// The 17-relation wide chain runs past the reference sweep's
	// 16-relation cap, so it measures the wide-key fast path alone. Only
	// the chain head is indexed: ExportAll's retained set is an antichain
	// over per-relation leaf choices, and indexing every relation would
	// make it exponential in the chain length in any planner.
	{
		cat, q, err := workload.ShapeQuery(workload.ShapeSpec{Shape: workload.ShapeWideChain, Rels: 17, Seed: seed})
		if err != nil {
			return "", err
		}
		a, err := optimizer.NewAnalysis(q, nil, optimizer.DefaultCostParams())
		if err != nil {
			return "", err
		}
		full := workload.ShapeAllOrdersConfig(cat, q)
		cfg := &query.Config{}
		head := map[string]bool{q.Rels[0].Table.Name: true, q.Rels[1].Table.Name: true, q.Rels[2].Table.Name: true}
		for _, ix := range full.Indexes {
			if head[ix.Table] {
				cfg.Indexes = append(cfg.Indexes, ix)
			}
		}
		opt := optimizer.Options{EnableNestLoop: true, ExportAll: true}
		measure(fmt.Sprintf("OptimizeExportAll/shape=wide-chain/tables=%d/fast", len(q.Rels)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := optimizer.Optimize(a, cfg, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The whole-workload batch build, serial and with all cores.
	analyses := make([]*optimizer.Analysis, len(env.Queries))
	for i, q := range env.Queries {
		a, err := optimizer.NewAnalysis(q, env.Star.Stats, optimizer.DefaultCostParams())
		if err != nil {
			return "", err
		}
		analyses[i] = a
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		workers := workers
		measure(fmt.Sprintf("BatchCacheBuild/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildAll(analyses, env.Star.Catalog, workers, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The INUM kernel: Cache.Cost on the widest query's PINUM cache over
	// 200 seeded random atomic configurations, priced concurrently at
	// GOMAXPROCS 1, 2 and 4. Cost shares no mutable state, so ns/op
	// should fall with the CPU count on a host that has the cores.
	{
		wide := analyses[0]
		for _, a := range analyses {
			if len(a.Rels) > len(wide.Rels) {
				wide = a
			}
		}
		cache, err := core.Build(wide, whatif.NewSession(env.Star.Catalog))
		if err != nil {
			return "", err
		}
		ws := whatif.NewSession(env.Star.Catalog)
		rng := rand.New(rand.NewSource(seed))
		cfgs := make([]*query.Config, 200)
		for i := range cfgs {
			if cfgs[i], err = workload.RandomAtomicConfig(rng, wide, ws, 0.7); err != nil {
				return "", err
			}
		}
		for _, cpus := range []int{1, 2, 4} {
			cpus := cpus
			measure(fmt.Sprintf("CacheCost/tables=%d/cpu=%d", len(wide.Rels), cpus), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
				b.RunParallel(func(pb *testing.PB) {
					for i := 0; pb.Next(); i++ {
						if _, _, err := cache.Cost(cfgs[i%len(cfgs)]); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}

	// Snapshot + serving layer: these also diversify the suite away from
	// planner-dominated benchmarks, which is what makes the -compare
	// reference gate's median a meaningful anchor.
	slims, err := core.BuildAllSlim(analyses, env.Star.Catalog, 0)
	if err != nil {
		return "", err
	}
	var totals optimizer.PlannerStats
	for _, c := range slims {
		totals.Add(c.Stats.Planner)
	}
	rep.Planner = &plannerTotals{
		EnumStates:        int64(totals.EnumStates),
		FrontierInserts:   int64(totals.FrontierInserts),
		FrontierDrops:     int64(totals.FrontierDrops),
		FrontierEvictions: int64(totals.FrontierEvictions),
	}
	fmt.Fprintf(os.Stderr, "  planner totals: enum_states=%d frontier_inserts=%d drops=%d evictions=%d\n",
		totals.EnumStates, totals.FrontierInserts, totals.FrontierDrops, totals.FrontierEvictions)
	fp := plancache.Fingerprint(env.Star.Catalog, env.Star.Stats, optimizer.DefaultCostParams())
	snap := plancache.NewSnapshot(fp, slims)
	var snapBuf bytes.Buffer
	if err := plancache.Encode(&snapBuf, snap); err != nil {
		return "", err
	}
	snapBytes := snapBuf.Bytes()

	measure("SnapshotLoad/queries=10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dec, err := plancache.Decode(snapBytes)
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

	// Concurrent /whatif requests against a server running on a
	// snapshot-loaded cache set — the serving layer's request path end to
	// end (HTTP, config interning, fan-out cost evaluation).
	dec, err := plancache.Decode(snapBytes)
	if err != nil {
		return "", err
	}
	served := make([]*inum.Cache, len(env.Queries))
	for qi := range dec.Queries {
		if served[qi], err = plancache.ToCache(analyses[qi], dec.Queries[qi]); err != nil {
			return "", err
		}
	}
	srv, err := serve.New(serve.Config{
		Catalog:  env.Star.Catalog,
		Stats:    env.Star.Stats,
		Queries:  env.Queries,
		Analyses: analyses,
		Caches:   served,
	})
	if err != nil {
		return "", err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	whatIfBody := []byte(`{"indexes":[{"table":"fact","columns":["fk_dim1_1","m1"]},{"table":"dim1_1","columns":["a1","id"]}]}`)
	measure("ServeWhatIf/queries=10", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := http.Post(ts.URL+"/whatif", "application/json", bytes.NewReader(whatIfBody))
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
	})

	// Server.Recommend over e2ebench's 24-point budget × cap grid, one
	// request per op, on the same snapshot-loaded caches served by one
	// worker; an untimed request builds the set's candidate lowering
	// table first, so the row measures the per-request greedy search.
	recSrv, err := serve.New(serve.Config{
		Catalog:  env.Star.Catalog,
		Stats:    env.Star.Stats,
		Queries:  env.Queries,
		Analyses: analyses,
		Caches:   served,
		Workers:  1,
	})
	if err != nil {
		return "", err
	}
	var grid []serve.RecommendRequest
	for _, maxIndexes := range []int{0, 2, 3, 5} {
		for _, budget := range []float64{0.5, 1, 2, 3, 5, 8} {
			grid = append(grid, serve.RecommendRequest{BudgetGB: budget, MaxIndexes: maxIndexes})
		}
	}
	if _, err := recSrv.Recommend(&grid[0]); err != nil {
		return "", err
	}
	measure(fmt.Sprintf("ServeRecommend/queries=%d", len(env.Queries)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := recSrv.Recommend(&grid[i%len(grid)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	// A disk-snapshot cold load of one tenant through serve's public API,
	// the environment loader included: two tenants behind a residency cap
	// of one, so each request evicts the other and loads from its file.
	snapDir, err := os.MkdirTemp("", "pinum-bench-tenants")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(snapDir)
	tenantLoader := func() (*serve.Environment, error) {
		e, err := experiments.NewEnv(seed)
		if err != nil {
			return nil, err
		}
		as := make([]*optimizer.Analysis, len(e.Queries))
		for i, q := range e.Queries {
			if as[i], err = optimizer.NewAnalysis(q, e.Star.Stats, optimizer.DefaultCostParams()); err != nil {
				return nil, err
			}
		}
		return &serve.Environment{Catalog: e.Star.Catalog, Stats: e.Star.Stats, Queries: e.Queries, Analyses: as}, nil
	}
	tenants := []string{"a", "b"}
	mtCfg := serve.Config{MaxResident: 1}
	for _, name := range tenants {
		mtCfg.Tenants = append(mtCfg.Tenants, serve.TenantConfig{
			Name: name, Loader: tenantLoader, SnapshotPath: filepath.Join(snapDir, name+".pcache"),
		})
	}
	mtSrv, err := serve.New(mtCfg)
	if err != nil {
		return "", err
	}
	defer mtSrv.Close()
	for _, name := range tenants { // first loads rebuild and write the snapshots
		if _, err := mtSrv.WhatIf(&serve.WhatIfRequest{Tenant: name}); err != nil {
			return "", err
		}
	}
	measure(fmt.Sprintf("TenantColdLoad/queries=%d", len(env.Queries)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mtSrv.WhatIf(&serve.WhatIfRequest{Tenant: tenants[i%2]}); err != nil {
				b.Fatal(err)
			}
		}
	})

	if len(failed) > 0 {
		return "", fmt.Errorf("benchmarks failed: %v", failed)
	}

	path := fmt.Sprintf("BENCH_%s.json", label)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
