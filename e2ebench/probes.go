package main

// In-process layer probes: timed calls into each layer's public
// functions on the run's own seeded inputs, for the layers no served
// span covers (parsing, analysis, cache construction, snapshot decode)
// and for the bare INUM fold without the server around it.

import (
	"bytes"
	"time"

	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/sql"
	"github.com/pinumdb/pinum/internal/whatif"
)

type probeResult struct {
	parseBindUs      float64
	planUs           float64
	buildSlimMs      float64
	snapshotBytes    float64
	decodeUs         float64
	buildCachesUs    float64
	costSumUs        float64
	costWidestUs     float64
	costWidestTables int
}

func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

func runProbes(in *inputs) (*probeResult, error) {
	pr := &probeResult{}
	te := in.tenants[0]

	// sql: Parse+Bind, and optimizer: NewAnalysis+Optimize under the
	// empty configuration, over the SQL corpus.
	var pb, plan []float64
	for rep := 0; rep < 5; rep++ {
		for _, text := range in.sqlCorpus {
			t0 := time.Now()
			stmt, err := sql.Parse(text)
			if err != nil {
				return nil, err
			}
			q, err := sql.Bind(stmt, te.cat, "probe")
			if err != nil {
				return nil, err
			}
			pb = append(pb, usSince(t0))
			t1 := time.Now()
			a, err := optimizer.NewAnalysis(q, te.stats, optimizer.DefaultCostParams())
			if err != nil {
				return nil, err
			}
			if _, err := optimizer.Optimize(a, &query.Config{}, optimizer.Options{EnableNestLoop: true}); err != nil {
				return nil, err
			}
			plan = append(plan, usSince(t1))
		}
	}
	pr.parseBindUs, pr.planUs = median(pb), median(plan)

	// core: the slim cache build every snapshot (re)build runs.
	var builds []float64
	var slim []*inum.Cache
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		c, err := core.BuildAllSlim(te.analyses, te.cat, 0)
		if err != nil {
			return nil, err
		}
		builds = append(builds, usSince(t0)/1e3)
		slim = c
	}
	pr.buildSlimMs = median(builds)

	// plancache: decode and cache assembly for the roster's largest
	// snapshot, the one that sets the cold-load tail.
	var biggest []byte
	var bigTE *tenantEnv
	for _, t := range in.tenants {
		caches, err := core.BuildAllSlim(t.analyses, t.cat, 0)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		fp := plancache.Fingerprint(t.cat, t.stats, optimizer.DefaultCostParams())
		if err := plancache.Encode(&buf, plancache.NewSnapshot(fp, caches)); err != nil {
			return nil, err
		}
		if buf.Len() > len(biggest) {
			biggest, bigTE = buf.Bytes(), t
		}
	}
	pr.snapshotBytes = float64(len(biggest))
	var dec, bc []float64
	for rep := 0; rep < 7; rep++ {
		t0 := time.Now()
		snap, err := plancache.Decode(biggest)
		if err != nil {
			return nil, err
		}
		dec = append(dec, usSince(t0))
		t1 := time.Now()
		if _, err := plancache.BuildCaches(snap, bigTE.queries, bigTE.analyses); err != nil {
			return nil, err
		}
		bc = append(bc, usSince(t1))
	}
	pr.decodeUs, pr.buildCachesUs = median(dec), median(bc)

	// inum: Cache.Cost over the run's configurations on the slim caches,
	// leaf memos warmed by one untimed pass first (as on a live set).
	ws := whatif.NewSession(te.cat)
	cfgs := make([]*query.Config, 0, len(in.probeConfigs))
	for _, specs := range in.probeConfigs {
		cfg := &query.Config{}
		for _, s := range specs {
			ix, err := ws.CreateIndex(s.Table, s.Columns...)
			if err != nil {
				return nil, err
			}
			cfg.Indexes = append(cfg.Indexes, ix)
		}
		cfgs = append(cfgs, cfg)
	}
	widest := 0
	for i, q := range te.queries {
		if len(q.Rels) > len(te.queries[widest].Rels) {
			widest = i
		}
	}
	pr.costWidestTables = len(te.queries[widest].Rels)
	for _, cfg := range cfgs {
		for _, c := range slim {
			if _, _, err := c.Cost(cfg); err != nil {
				return nil, err
			}
		}
	}
	var sums, wide []float64
	for rep := 0; rep < 3; rep++ {
		for _, cfg := range cfgs {
			var sum float64
			for qi, c := range slim {
				t0 := time.Now()
				if _, _, err := c.Cost(cfg); err != nil {
					return nil, err
				}
				d := usSince(t0)
				sum += d
				if qi == widest {
					wide = append(wide, d)
				}
			}
			sums = append(sums, sum)
		}
	}
	pr.costSumUs, pr.costWidestUs = median(sums), median(wide)
	return pr, nil
}
