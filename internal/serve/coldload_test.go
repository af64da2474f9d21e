package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/faultpoint"
	"github.com/pinumdb/pinum/internal/storage"
)

// TestColdLoadWalksOnceAndDefersCandidates pins what a load costs: every
// cold load and every reload walks the statistics exactly once (the
// plancache.fingerprint point counts walks), and a tenant that only ever
// answers /whatif never generates its advisor candidate set.
func TestColdLoadWalksOnceAndDefersCandidates(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	f := newMTFixture(t, mtSeeds, mtOrder, 1, nil)
	// Arming the points (as no-op delays) turns on hit counting.
	for _, point := range []string{"plancache.fingerprint", "serve.candidates", "serve.lowerings"} {
		if err := faultpoint.Set(point, "delay=0s"); err != nil {
			t.Fatal(err)
		}
	}
	probe := []byte(`{"indexes":[{"table":"fact","columns":["a1","m1"]}]}`)
	walks := int64(0)
	step := func(what string) {
		t.Helper()
		walks++
		if got := faultpoint.Count("plancache.fingerprint"); got != walks {
			t.Fatalf("after %s: %d fingerprint walks, want %d (one per load)", what, got, walks)
		}
		if got := faultpoint.Count("serve.candidates"); got != 0 {
			t.Fatalf("after %s: candidate set generated %d times by /whatif-only traffic, want 0", what, got)
		}
		if got := faultpoint.Count("serve.lowerings"); got != 0 {
			t.Fatalf("after %s: lowering table built %d times by /whatif-only traffic, want 0", what, got)
		}
	}

	// acme rebuilds (no snapshot yet), globex evicts it, acme comes back
	// from its disk snapshot.
	for _, name := range []string{"acme", "globex", "acme"} {
		if code, body := f.do(t, http.MethodPost, "/whatif", name, probe); code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, code, body)
		}
		step("cold load of " + name)
	}
	if st := f.tenantStatz(t, "acme"); st.SnapshotSource != sourceDisk || st.ColdLoads != 2 {
		t.Fatalf("acme: source %q after %d cold loads, want a disk-snapshot reload", st.SnapshotSource, st.ColdLoads)
	}

	// An unchanged reload is skipped after its one walk; drift makes an
	// incremental reload, still one walk.
	if out, err := f.srv.ReloadTenant("acme", false); err != nil || out.Result != "skipped" {
		t.Fatalf("unchanged reload: %+v, %v", out, err)
	}
	step("skipped reload")
	f.setRows("acme", "dim2_7", 4242424)
	if out, err := f.srv.ReloadTenant("acme", false); err != nil || out.SnapshotSource != sourceIncremental {
		t.Fatalf("drift reload: %+v, %v", out, err)
	}
	step("incremental reload")
	acme := f.srv.tenants["acme"]
	if got := acme.loadDuration[sourceIncremental].Count(); got != 1 {
		t.Fatalf("load_duration{source=incremental} count = %d, want 1", got)
	}

	// /healthz reads the candidate set but never builds the lowering
	// table; the first /recommend pays for both, exactly once.
	if code, body := f.do(t, http.MethodGet, "/healthz", "acme", nil); code != http.StatusOK {
		t.Fatalf("/healthz: %d %s", code, body)
	}
	if got := faultpoint.Count("serve.lowerings"); got != 0 {
		t.Fatalf("/healthz built the lowering table %d times, want 0", got)
	}
	for i := 0; i < 2; i++ {
		if code, body := f.do(t, http.MethodPost, "/recommend", "acme", []byte(`{"budget_gb":5}`)); code != http.StatusOK {
			t.Fatalf("/recommend: %d %s", code, body)
		}
	}
	if got := faultpoint.Count("serve.candidates"); got != 1 {
		t.Fatalf("candidate set generated %d times by two /recommend requests, want 1", got)
	}
	if got := faultpoint.Count("serve.lowerings"); got != 1 {
		t.Fatalf("lowering table built %d times by two /recommend requests, want 1", got)
	}
}

// TestLazyCandidatesConcurrentFirstUse races the first readers of a
// freshly published set's candidates — /recommend, /healthz and /statz at
// once, with the generation and the lowering-table build slowed so they
// overlap inside them. The set and its lowering table are each built
// exactly once, every /recommend body byte-matches the in-process
// advisor reference, and /healthz reports the same candidate and error
// counts an eager generation gives. Run it under -race.
func TestLazyCandidatesConcurrentFirstUse(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	for _, point := range []string{"serve.candidates", "serve.lowerings"} {
		if err := faultpoint.Set(point, "delay=30ms"); err != nil {
			t.Fatal(err)
		}
	}
	f := newFixture(t)

	ad := advisor.New(f.star.Catalog, f.star.Stats, storage.BytesForGB(5))
	if err := ad.AddQueries(f.queries, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := ad.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantRecommend, err := EncodeJSON(RecommendResponseFrom(ref, f.queries))
	if err != nil {
		t.Fatal(err)
	}

	const perEndpoint = 4
	type result struct {
		path string
		code int
		body []byte
	}
	results := make(chan result, 3*perEndpoint)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < perEndpoint; i++ {
		for _, path := range []string{"/recommend", "/healthz", "/statz"} {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				<-start
				var resp *http.Response
				var err error
				if path == "/recommend" {
					resp, err = http.Post(f.ts.URL+path, "application/json", bytes.NewReader([]byte(`{"budget_gb":5}`)))
				} else {
					resp, err = http.Get(f.ts.URL + path)
				}
				if err != nil {
					results <- result{path: path, body: []byte(err.Error())}
					return
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				results <- result{path: path, code: resp.StatusCode, body: buf.Bytes()}
			}(path)
		}
	}
	close(start)
	wg.Wait()
	close(results)

	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("%s: %d %s", r.path, r.code, r.body)
		}
		switch r.path {
		case "/recommend":
			if !bytes.Equal(r.body, wantRecommend) {
				t.Errorf("/recommend body differs from the in-process reference:\n%s\nwant:\n%s", r.body, wantRecommend)
			}
		case "/healthz":
			var h struct {
				Candidates int `json:"candidates"`
				GenErrors  int `json:"candidate_gen_errors"`
			}
			if err := json.Unmarshal(r.body, &h); err != nil {
				t.Fatal(err)
			}
			if h.Candidates != ref.CandidateCount || h.GenErrors != len(ref.GenerationErrors) {
				t.Errorf("/healthz candidates=%d gen_errors=%d, eager generation gives %d/%d",
					h.Candidates, h.GenErrors, ref.CandidateCount, len(ref.GenerationErrors))
			}
		case "/statz":
			var s struct {
				GenErrors []string `json:"candidate_gen_errors"`
			}
			if err := json.Unmarshal(r.body, &s); err != nil {
				t.Fatal(err)
			}
			if len(s.GenErrors) != len(ref.GenerationErrors) {
				t.Errorf("/statz lists %d generation errors, eager generation gives %d",
					len(s.GenErrors), len(ref.GenerationErrors))
			}
		}
	}
	if got := faultpoint.Count("serve.candidates"); got != 1 {
		t.Fatalf("candidate set generated %d times under concurrent first use, want 1", got)
	}
	if got := faultpoint.Count("serve.lowerings"); got != 1 {
		t.Fatalf("lowering table built %d times under concurrent first use, want 1", got)
	}
}

// TestParentSnapshotLoadsFromDisk loads a snapshot file written before
// the fingerprint walk was merged (testdata/star1_seed42_q1q2.pcache:
// star schema at scale 1, workload seed 42, queries Q1 and Q2). Its
// stored fingerprint must still match, so the tenant cold-loads it from
// disk instead of rebuilding — and leaves the file untouched.
func TestParentSnapshotLoadsFromDisk(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("testdata", "star1_seed42_q1q2.pcache"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "acme.pcache")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Tenants: []TenantConfig{{
			Name: "acme",
			Loader: func() (*Environment, error) {
				env, err := starEnv(42, nil)
				if err != nil {
					return nil, err
				}
				env.Queries, env.Analyses = env.Queries[:2], env.Analyses[:2]
				return env, nil
			},
			SnapshotPath: path,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if _, err := srv.WhatIf(&WhatIfRequest{Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	st := srv.tenants["acme"].stats()
	if st.SnapshotSource != sourceDisk || st.Queries != 2 {
		t.Fatalf("acme loaded %d queries from %q, want 2 from %q", st.Queries, st.SnapshotSource, sourceDisk)
	}
	if st.Fingerprint != "aabed22b151d8c98" {
		t.Fatalf("fingerprint %s, want the scale-1 star fingerprint aabed22b151d8c98", st.Fingerprint)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, after) {
		t.Fatal("a disk-snapshot load rewrote the snapshot file")
	}
}
