package main

// Workload definitions and seeded input generation. The tenant rosters
// are fixed (they are the deployment under test); everything a client
// sends — which specs, which tenant, which budgets, which SQL — is drawn
// from the run's --seed, so the same seed always replays the same
// request stream.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/stats"
	"github.com/pinumdb/pinum/internal/workload"
)

// tenantSpec is one roster entry, in pinum-serve's -tenants format.
type tenantSpec struct {
	Name  string  `json:"name"`
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
}

// Request classes. The class decides the endpoint and how the answer is
// checked.
const (
	classWhatIf    = "whatif"
	classRecommend = "recommend"
	classExplain   = "explain"
	classReload    = "reload"
)

// workloadDef is one named traffic mix. Rates are requests per second,
// each class on its own fixed-interval stream.
type workloadDef struct {
	name      string
	why       string
	roster    []tenantSpec
	tenantCap int
	rates     map[string]float64
	// primary is the class whose latency the end-to-end p50_ms and
	// tail_ms report.
	primary string
}

var workloads = []workloadDef{
	{
		name:    "whatif-hot",
		why:     "one tenant, /whatif only: pure cache arithmetic in serve ingress/egress, core fan-out and inum",
		roster:  []tenantSpec{{Name: "hot", Seed: 42, Scale: 1}},
		rates:   map[string]float64{classWhatIf: 400},
		primary: classWhatIf,
	},
	{
		name: "tenant-churn",
		why:  "8 tenants behind a residency cap of 2 plus forced reloads: cold loads, snapshot decode and rebuilds on the request path",
		roster: []tenantSpec{
			{Name: "t0", Seed: 42, Scale: 1},
			{Name: "t1", Seed: 43, Scale: 0.5},
			{Name: "t2", Seed: 44, Scale: 2},
			{Name: "t3", Seed: 45, Scale: 0.25},
			{Name: "t4", Seed: 46, Scale: 4},
			{Name: "t5", Seed: 47, Scale: 1},
			{Name: "t6", Seed: 48, Scale: 0.75},
			{Name: "t7", Seed: 49, Scale: 1.5},
		},
		tenantCap: 2,
		rates:     map[string]float64{classWhatIf: 150, classReload: 2},
		primary:   classWhatIf,
	},
	{
		name:    "advise",
		why:     "one tenant, /recommend mixed with /explain: advisor and costmatrix search plus real optimizer planning, no /whatif",
		roster:  []tenantSpec{{Name: "adv", Seed: 42, Scale: 1}},
		rates:   map[string]float64{classRecommend: 12, classExplain: 100},
		primary: classRecommend,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// tenantEnv is one tenant's serving world rebuilt in-process, exactly as
// pinum-serve's loader derives it: the star schema at the tenant's scale
// and the seeded ten-query workload, analysed.
type tenantEnv struct {
	spec     tenantSpec
	star     *workload.Star
	cat      *catalog.Catalog
	stats    *stats.Store
	queries  []*query.Query
	analyses []*optimizer.Analysis
	caches   []*inum.Cache
	// pool is the advisor's candidate set for the workload, as
	// (table, columns) specs in generation order.
	pool []serve.IndexSpec
}

func loadTenantEnv(ts tenantSpec) (*tenantEnv, error) {
	star, err := workload.StarSchema(ts.Scale)
	if err != nil {
		return nil, err
	}
	queries, err := star.Queries(ts.Seed)
	if err != nil {
		return nil, err
	}
	te := &tenantEnv{spec: ts, star: star, cat: star.Catalog, stats: star.Stats, queries: queries}
	for _, q := range queries {
		a, err := optimizer.NewAnalysis(q, star.Stats, optimizer.DefaultCostParams())
		if err != nil {
			return nil, err
		}
		te.analyses = append(te.analyses, a)
	}
	// Tree-backed caches, built independently of the server's slim
	// snapshot path, are the reference the answer check prices against.
	if te.caches, err = core.BuildAll(te.analyses, te.cat, 0, false); err != nil {
		return nil, err
	}
	ad := advisor.New(star.Catalog, star.Stats, 0)
	for i, q := range queries {
		if err := ad.AddPrepared(q, te.analyses[i], te.caches[i], 1); err != nil {
			return nil, err
		}
	}
	ad.GenerateCandidates()
	for _, ix := range ad.Candidates() {
		te.pool = append(te.pool, serve.IndexSpec{Table: ix.Table, Columns: append([]string(nil), ix.Columns...)})
	}
	return te, nil
}

// request is one scheduled request: its class, due offset from the start
// of the phase, routed tenant and pre-encoded body.
type request struct {
	class  string
	at     time.Duration
	tenant string
	path   string
	body   []byte
}

// specGen draws /whatif index specs: zipf over a seed-shuffled candidate
// pool, with about one spec in ten a column permutation of a multi-column
// candidate that the pool does not contain (an exploring client the
// server has never seen).
type specGen struct {
	rng   *rand.Rand
	pool  []serve.IndexSpec
	zipf  *rand.Zipf
	known map[string]bool
	multi []int
}

func newSpecGen(rng *rand.Rand, pool []serve.IndexSpec) *specGen {
	g := &specGen{rng: rng, known: make(map[string]bool, len(pool))}
	g.pool = append([]serve.IndexSpec(nil), pool...)
	rng.Shuffle(len(g.pool), func(i, j int) { g.pool[i], g.pool[j] = g.pool[j], g.pool[i] })
	for i, s := range g.pool {
		g.known[specKey(s)] = true
		if len(s.Columns) > 1 {
			g.multi = append(g.multi, i)
		}
	}
	g.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(g.pool)-1))
	return g
}

func specKey(s serve.IndexSpec) string { return fmt.Sprint(s.Table, s.Columns) }

func (g *specGen) spec() serve.IndexSpec {
	if len(g.multi) > 0 && g.rng.Intn(10) == 0 {
		base := g.pool[g.multi[g.rng.Intn(len(g.multi))]]
		for try := 0; try < 8; try++ {
			cols := append([]string(nil), base.Columns...)
			g.rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			s := serve.IndexSpec{Table: base.Table, Columns: cols}
			if !g.known[specKey(s)] {
				return s
			}
		}
	}
	return g.pool[g.zipf.Uint64()]
}

// config draws one /whatif configuration of 1–4 specs.
func (g *specGen) config() []serve.IndexSpec {
	n := 1 + g.rng.Intn(4)
	out := make([]serve.IndexSpec, 0, n)
	for len(out) < n {
		s := g.spec()
		dup := false
		for _, prev := range out {
			if specKey(prev) == specKey(s) {
				dup = true
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// inputs is everything a run sends, generated from its seed.
type inputs struct {
	tenants []*tenantEnv
	byName  map[string]*tenantEnv
	// schedule is the measured phase, ordered by due time.
	schedule []request
	// probeConfigs are /whatif configurations for the in-process inum
	// probe, drawn from the same generator on the first tenant.
	probeConfigs [][]serve.IndexSpec
	// sqlCorpus is the /explain SQL (or, for workloads without /explain,
	// the tenants' own query text) for the sql and optimizer probes.
	sqlCorpus []string
}

func makeInputs(wl workloadDef, seed int64, seconds float64) (*inputs, error) {
	in := &inputs{byName: map[string]*tenantEnv{}}
	for _, ts := range wl.roster {
		te, err := loadTenantEnv(ts)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", ts.Name, err)
		}
		in.tenants = append(in.tenants, te)
		in.byName[ts.Name] = te
	}
	rng := rand.New(rand.NewSource(seed))
	gens := make([]*specGen, len(in.tenants))
	for i, te := range in.tenants {
		gens[i] = newSpecGen(rand.New(rand.NewSource(rng.Int63())), te.pool)
	}
	// Tenant popularity: zipf over the roster in roster order, so the
	// residency pattern (and with it the cold-load rate) is a property of
	// the workload, not of the seed. Each block of tenantBlock requests
	// holds the zipf shares exactly, in a seeded order.
	tenants := &tenantMix{rng: rand.New(rand.NewSource(rng.Int63())), counts: zipfCounts(len(in.tenants), 1.2, tenantBlock)}
	explainSQL, err := explainCorpus(in.tenants[0], rng.Int63())
	if err != nil {
		return nil, err
	}
	classRng := rand.New(rand.NewSource(rng.Int63()))
	recs := &recommendMix{rng: rand.New(rand.NewSource(rng.Int63())), te: in.tenants[0]}

	classes := make([]string, 0, len(wl.rates))
	for c := range wl.rates {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	total := time.Duration(seconds * float64(time.Second))
	reloads := 0
	for ci, c := range classes {
		interval := time.Duration(float64(time.Second) / wl.rates[c])
		// Offset each class's stream so the streams interleave rather
		// than collide on the same instants.
		phase := interval * time.Duration(ci) / time.Duration(len(classes))
		for at := phase; at < total; at += interval {
			r := request{class: c, at: at}
			var body any
			switch c {
			case classWhatIf:
				ti := tenants.next()
				r.tenant = in.tenants[ti].spec.Name
				r.path = "/whatif"
				body = serve.WhatIfRequest{Indexes: gens[ti].config()}
			case classRecommend:
				r.tenant = in.tenants[0].spec.Name
				r.path = "/recommend"
				body = recs.next()
			case classExplain:
				r.tenant = in.tenants[0].spec.Name
				r.path = "/explain"
				er := serve.ExplainRequest{SQL: explainSQL[classRng.Intn(len(explainSQL))]}
				for k := classRng.Intn(3); k > 0; k-- {
					er.Indexes = append(er.Indexes, gens[0].spec())
				}
				body = er
			case classReload:
				r.tenant = in.tenants[reloads%len(in.tenants)].spec.Name
				reloads++
				r.path = "/reload?force=1&wait=1&tenant=" + r.tenant
			}
			if body != nil {
				if r.body, err = json.Marshal(body); err != nil {
					return nil, err
				}
			}
			in.schedule = append(in.schedule, r)
		}
	}
	sort.SliceStable(in.schedule, func(i, j int) bool { return in.schedule[i].at < in.schedule[j].at })

	probeGen := newSpecGen(rand.New(rand.NewSource(rng.Int63())), in.tenants[0].pool)
	for i := 0; i < 200; i++ {
		in.probeConfigs = append(in.probeConfigs, probeGen.config())
	}
	if wl.rates[classExplain] > 0 {
		in.sqlCorpus = explainSQL
	} else {
		for _, te := range in.tenants {
			for _, q := range te.queries {
				in.sqlCorpus = append(in.sqlCorpus, q.SQL)
			}
		}
	}
	return in, nil
}

// tenantBlock is the number of /whatif requests over which the tenant
// mix holds its shares exactly.
const tenantBlock = 100

// zipfCounts splits n requests over k ranks in proportion to
// 1/(rank+1)^s, by largest remainder.
func zipfCounts(k int, s float64, n int) []int {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	left := n
	for i := range w {
		exact := float64(n) * w[i] / sum
		counts[i] = int(exact)
		left -= counts[i]
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := float64(n)*w[rem[a]]/sum - float64(counts[rem[a]])
		fb := float64(n)*w[rem[b]]/sum - float64(counts[rem[b]])
		return fa > fb
	})
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	return counts
}

// tenantMix deals tenant indexes block by block: each block is every
// tenant repeated its count times, shuffled.
type tenantMix struct {
	rng    *rand.Rand
	counts []int
	block  []int
}

func (m *tenantMix) next() int {
	if len(m.block) == 0 {
		for ti, n := range m.counts {
			for j := 0; j < n; j++ {
				m.block = append(m.block, ti)
			}
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	ti := m.block[0]
	m.block = m.block[1:]
	return ti
}

// explainCorpus generates ad-hoc star SQL for /explain: the workload
// generator's queries under five seeds other than the tenant's, over the
// tenant's own schema.
func explainCorpus(te *tenantEnv, seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for len(out) < 50 {
		s := rng.Int63n(1 << 30)
		if s == te.spec.Seed {
			continue
		}
		qs, err := te.star.Queries(s)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			out = append(out, q.SQL)
		}
	}
	return out, nil
}

// recommendMix is the /recommend parameter grid: every (budget, index
// cap) pair in turn, in a seeded order, so each run asks for the same mix
// of search sizes and only the order and the weight overrides vary with
// the seed.
type recommendMix struct {
	rng   *rand.Rand
	te    *tenantEnv
	order []int
}

var (
	recommendBudgets = []float64{0.5, 1, 2, 3, 5, 8}
	recommendCaps    = []int{0, 2, 3, 5}
)

// next draws one /recommend body; one time in three it reweights one to
// three queries.
func (m *recommendMix) next() serve.RecommendRequest {
	if len(m.order) == 0 {
		m.order = m.rng.Perm(len(recommendBudgets) * len(recommendCaps))
	}
	k := m.order[0]
	m.order = m.order[1:]
	req := serve.RecommendRequest{
		BudgetGB:   recommendBudgets[k%len(recommendBudgets)],
		MaxIndexes: recommendCaps[k/len(recommendBudgets)],
	}
	if m.rng.Intn(3) == 0 {
		weights := []float64{0.5, 2, 3, 5}
		for _, qi := range m.rng.Perm(len(m.te.queries))[:1+m.rng.Intn(3)] {
			req.Weights = append(req.Weights, serve.WeightOverride{
				Name: m.te.queries[qi].Name, Weight: weights[m.rng.Intn(len(weights))],
			})
		}
	}
	return req
}
