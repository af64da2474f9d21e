package inum_test

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/core"
	"github.com/pinumdb/pinum/internal/inum"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/query"
	"github.com/pinumdb/pinum/internal/whatif"
	"github.com/pinumdb/pinum/internal/workload"
)

// q10 is the star workload's widest query (7 relations) with its PINUM
// cache, built once per test binary: the kernel tests and the fuzz target
// all price it.
type q10 struct {
	a     *optimizer.Analysis
	cache *inum.Cache
	cat   *catalog.Catalog
	// pool is the all-orders configuration's indexes: one covering index
	// per (table, interesting order).
	pool []*catalog.Index
}

var (
	q10Once sync.Once
	q10Val  *q10
	q10Err  error
)

func loadQ10(t testing.TB) *q10 {
	t.Helper()
	q10Once.Do(func() {
		s, err := workload.StarSchema(1.0)
		if err != nil {
			q10Err = err
			return
		}
		qs, err := s.Queries(42)
		if err != nil {
			q10Err = err
			return
		}
		a, err := optimizer.NewAnalysis(qs[9], s.Stats, optimizer.DefaultCostParams())
		if err != nil {
			q10Err = err
			return
		}
		c, err := core.Build(a, whatif.NewSession(s.Catalog))
		if err != nil {
			q10Err = err
			return
		}
		all, err := inum.AllOrdersConfig(a, whatif.NewSession(s.Catalog))
		if err != nil {
			q10Err = err
			return
		}
		q10Val = &q10{a: a, cache: c, cat: s.Catalog, pool: all.Indexes}
	})
	if q10Err != nil {
		t.Fatal(q10Err)
	}
	return q10Val
}

// randomConfigs draws n seeded random atomic configurations over the
// query.
func randomConfigs(t testing.TB, q *q10, n int, seed int64) []*query.Config {
	t.Helper()
	ws := whatif.NewSession(q.cat)
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]*query.Config, n)
	for i := range cfgs {
		cfg, err := workload.RandomAtomicConfig(rng, q.a, ws, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// referenceCost is the INUM fold written out against the live cost
// model, one Analysis.AccessCost call per leaf, with no kernel table: the
// oracle the kernel must match bit for bit. It returns the winning
// plan's position (-1 when no plan applies).
func referenceCost(c *inum.Cache, cfg *query.Config) (float64, int) {
	best, bestIdx := math.Inf(1), -1
	for i, cp := range c.Plans {
		cost := cp.Internal
		ok := true
		for rel := 0; rel < cp.NumRels(); rel++ {
			req := cp.Leaf(rel)
			a, applicable := c.A.AccessCost(rel, req, cfg)
			if !applicable {
				ok = false
				break
			}
			cost += req.Coef * a
		}
		if ok && cost < best {
			best, bestIdx = cost, i
		}
	}
	return best, bestIdx
}

func planIndex(c *inum.Cache, cp *inum.CachedPlan) int {
	for i, p := range c.Plans {
		if p == cp {
			return i
		}
	}
	return -1
}

// assertMatchesReference checks one configuration's kernel answer against
// the reference fold.
func assertMatchesReference(t *testing.T, c *inum.Cache, cfg *query.Config) {
	t.Helper()
	want, wantIdx := referenceCost(c, cfg)
	got, cp, err := c.Cost(cfg)
	if wantIdx < 0 {
		if err == nil {
			t.Fatalf("config %s: kernel priced %v where no plan applies", cfg, got)
		}
		return
	}
	if err != nil {
		t.Fatalf("config %s: %v", cfg, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("config %s: kernel cost %v != reference %v", cfg, got, want)
	}
	if gotIdx := planIndex(c, cp); gotIdx != wantIdx {
		t.Fatalf("config %s: kernel picked plan %d, reference %d", cfg, gotIdx, wantIdx)
	}
}

// TestCacheCostMatchesReferenceQ10 prices 200 random atomic
// configurations plus the all-orders one through the kernel and the
// reference fold.
func TestCacheCostMatchesReferenceQ10(t *testing.T) {
	q := loadQ10(t)
	for _, cfg := range append(randomConfigs(t, q, 200, 11), &query.Config{Indexes: q.pool}, nil) {
		assertMatchesReference(t, q.cache, cfg)
	}
}

// TestCacheCostAllocFree is the pin behind Cost's //pinum:allocfree
// directive: pricing Q10 under a 4-index configuration keeps its leaf
// table on the stack and allocates nothing.
func TestCacheCostAllocFree(t *testing.T) {
	q := loadQ10(t)
	if len(q.pool) < 4 {
		t.Fatalf("Q10 has %d all-orders indexes, need 4", len(q.pool))
	}
	cfg := &query.Config{Indexes: q.pool[:4]}
	if n := len(q.cache.Table(nil)); n > inum.StackSlots {
		t.Fatalf("Q10 needs %d slots, past the %d-slot stack table", n, inum.StackSlots)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := q.cache.Cost(cfg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Cost allocated %v times per op, want 0", n)
	}
}

// TestCacheCostConcurrentQ10 prices 200 random atomic configurations on
// one shared Q10 cache from 8 goroutines at once; every answer must be
// bit-equal to the serial one. Run under -race it also proves the kernel
// keeps no shared mutable state.
func TestCacheCostConcurrentQ10(t *testing.T) {
	q := loadQ10(t)
	cfgs := randomConfigs(t, q, 200, 5)
	want := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		c, _, err := q.cache.Cost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cfgs {
				i := (k + g*len(cfgs)/goroutines) % len(cfgs)
				c, _, err := q.cache.Cost(cfgs[i])
				if err != nil || math.Float64bits(c) != math.Float64bits(want[i]) {
					errs <- "concurrent cost differs from serial"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestLowerMatchesResolve pins the incremental seam costmatrix relies on:
// lowering a resolved table by one more index equals resolving the
// extended configuration.
func TestLowerMatchesResolve(t *testing.T) {
	q := loadQ10(t)
	c := q.cache
	for _, cfg := range randomConfigs(t, q, 50, 23) {
		for _, extra := range q.pool {
			inc := c.Table(nil)
			c.Resolve(inc, cfg)
			c.Lower(inc, extra)
			full := c.Table(nil)
			c.Resolve(full, &query.Config{Indexes: append(append([]*catalog.Index(nil), cfg.Indexes...), extra)})
			for s := range full {
				if math.Float64bits(inc[s]) != math.Float64bits(full[s]) {
					t.Fatalf("slot %d: lowered %v != resolved %v", s, inc[s], full[s])
				}
			}
		}
	}
}

// configFromBytes decodes fuzz input into a configuration over Q10: a
// byte below 0x80 picks an index from the all-orders pool; a byte at or
// above it adds an extra index on relation b%rels whose 1–3 columns the
// following bytes choose among the relation's query-referenced columns.
// At most 12 indexes are decoded.
func configFromBytes(q *q10, ws *whatif.Session, data []byte) *query.Config {
	cfg := &query.Config{}
	for i := 0; i < len(data) && len(cfg.Indexes) < 12; i++ {
		b := data[i]
		if b < 0x80 {
			cfg.Indexes = append(cfg.Indexes, q.pool[int(b)%len(q.pool)])
			continue
		}
		ri := &q.a.Rels[int(b)%len(q.a.Rels)]
		cols := make([]string, 0, len(ri.Needed))
		for col := range ri.Needed {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		want := 1 + int(b>>4)%3
		var pick []string
		seen := map[string]bool{}
		for len(pick) < want && i+1 < len(data) {
			i++
			col := cols[int(data[i])%len(cols)]
			if !seen[col] {
				seen[col] = true
				pick = append(pick, col)
			}
		}
		if len(pick) == 0 {
			pick = cols[:1]
		}
		ix := ws.Lookup(ri.Table.Name, pick...)
		if ix == nil {
			var err error
			if ix, err = ws.CreateIndex(ri.Table.Name, pick...); err != nil {
				continue
			}
		}
		cfg.Indexes = append(cfg.Indexes, ix)
	}
	return cfg
}

// FuzzCacheCostEquivalence checks the kernel against the reference fold
// on fuzz-chosen configurations over Q10: pool indexes in any order and
// multiplicity, plus extra non-covering and lookup-capable indexes. Cost
// and winning plan must be bit-equal.
func FuzzCacheCostEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 2, 1, 0, 3})
	f.Add([]byte{0x80, 0, 0x91, 1, 2, 0xa2, 3, 4, 5})
	f.Add([]byte{0xff, 7, 0xf3, 1, 1, 0x40, 0x41, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := loadQ10(t)
		ws := whatif.NewSession(q.cat)
		assertMatchesReference(t, q.cache, configFromBytes(q, ws, data))
	})
}
