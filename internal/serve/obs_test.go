package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/obs"
	"github.com/pinumdb/pinum/internal/storage"
)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExposition pins the scrape contract: after a known request
// mix, /metrics reports exactly those counts in Prometheus text form —
// per-endpoint counters, cumulative histogram buckets, per-tenant
// series, and the process gauges.
func TestMetricsExposition(t *testing.T) {
	f := newFixture(t)
	f.post(t, "/whatif", WhatIfRequest{}, nil)
	f.post(t, "/whatif", WhatIfRequest{}, nil)
	if _, err := http.Get(f.ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}

	body := scrape(t, f.ts.URL)
	for _, want := range []string{
		`pinum_http_requests_total{endpoint="/whatif"} 2`,
		`pinum_http_requests_total{endpoint="/healthz"} 1`,
		`pinum_http_request_errors_total{endpoint="/whatif"} 0`,
		`pinum_http_request_duration_seconds_bucket{endpoint="/whatif",le="+Inf"} 2`,
		`pinum_http_request_duration_seconds_count{endpoint="/whatif"} 2`,
		`pinum_tenant_requests_total{tenant="default"} 2`,
		`pinum_tenant_reloads_total{result="completed",tenant="default"} 0`,
		`# TYPE pinum_http_request_duration_seconds histogram`,
		`# TYPE pinum_uptime_seconds gauge`,
		`pinum_goroutines`,
		`pinum_heap_alloc_bytes`,
		`pinum_snapshot_queries{tenant="default"}`,
		`pinum_planner_enum_states{tenant="default"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The scrape itself is instrumented: a second scrape sees the first.
	body = scrape(t, f.ts.URL)
	if !strings.Contains(body, `pinum_http_requests_total{endpoint="/metrics"} 2`) {
		t.Error("/metrics scrapes are not counted in their own series")
	}
}

// TestTraceOptIn pins the tracing contract: a request with "trace": true
// gets a span breakdown covering the full pipeline, and the span set
// accounts for the fan-out (one span per workload query).
func TestTraceOptIn(t *testing.T) {
	f := newFixture(t)
	var got WhatIfResponse
	f.post(t, "/whatif", WhatIfRequest{Trace: true}, &got)
	if got.Trace == nil {
		t.Fatal("traced request returned no trace block")
	}
	if got.Trace.ID == "" {
		t.Error("trace block has no ID")
	}
	names := make(map[string]int)
	for _, sp := range got.Trace.Spans {
		if sp.DurNs < 0 || sp.StartNs < 0 {
			t.Errorf("span %s has negative timing: %+v", sp.Name, sp)
		}
		names[sp.Name]++
	}
	for _, want := range []string{"decode", "route", "load", "fanout", "encode"} {
		if names[want] != 1 {
			t.Errorf("span %q appears %d times, want 1", want, names[want])
		}
	}
	queries := 0
	for name := range names {
		if strings.HasPrefix(name, "query:") {
			queries++
		}
	}
	if queries != len(f.queries) {
		t.Errorf("%d query spans, want one per workload query (%d)", queries, len(f.queries))
	}
	// Spans arrive sorted by start offset.
	for i := 1; i < len(got.Trace.Spans); i++ {
		if got.Trace.Spans[i].StartNs < got.Trace.Spans[i-1].StartNs {
			t.Fatalf("spans not sorted by start: %+v", got.Trace.Spans)
		}
	}
}

// TestAdvisorCountersOnMetrics pins the advisor work counters: after two
// /recommend requests, each per-tenant series is the sum of the engine
// blocks the responses reported; the fold-skip series, which the body
// does not carry, is the sum an in-process advisor over the same caches
// reports; and the lowering-table gauge shows the live set's table.
func TestAdvisorCountersOnMetrics(t *testing.T) {
	f := newFixture(t)
	body := scrape(t, f.ts.URL)
	if want := `pinum_advisor_lowering_bytes{tenant="default"} 0`; !strings.Contains(body, want+"\n") {
		t.Errorf("/metrics before any /recommend missing %q", want)
	}
	var sum EngineStats
	var foldSkips int64
	for _, budget := range []float64{0.5, 2} {
		var got RecommendResponse
		f.post(t, "/recommend", RecommendRequest{BudgetGB: budget, MaxIndexes: 3}, &got)
		if got.Engine.CandidateEvals == 0 {
			t.Fatalf("budget %g: /recommend reported no candidate evaluations", budget)
		}
		sum.CandidateEvals += got.Engine.CandidateEvals
		sum.QueryEvals += got.Engine.QueryEvals
		sum.QuerySkips += got.Engine.QuerySkips

		set := f.srv.defaultTenant().current()
		ad := advisor.New(f.star.Catalog, f.star.Stats, storage.BytesForGB(budget))
		ad.MaxIndexes = 3
		for i, q := range f.queries {
			if err := ad.AddPrepared(q, f.analyses[i], set.caches[i], 1); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ad.Run()
		if err != nil {
			t.Fatal(err)
		}
		foldSkips += res.Engine.FoldSkips
	}
	if foldSkips == 0 {
		t.Fatal("vacuous: the in-process runs skipped no fold")
	}
	lowBytes := f.srv.defaultTenant().current().lowBytes.Load()
	if lowBytes <= 0 {
		t.Fatalf("live set reports a %d-byte lowering table after /recommend", lowBytes)
	}
	body = scrape(t, f.ts.URL)
	for _, want := range []string{
		fmt.Sprintf(`pinum_advisor_candidate_evals_total{tenant="default"} %d`, sum.CandidateEvals),
		fmt.Sprintf(`pinum_advisor_query_evals_total{tenant="default"} %d`, sum.QueryEvals),
		fmt.Sprintf(`pinum_advisor_query_skips_total{tenant="default"} %d`, sum.QuerySkips),
		fmt.Sprintf(`pinum_advisor_fold_skips_total{tenant="default"} %d`, foldSkips),
		fmt.Sprintf(`pinum_advisor_lowering_bytes{tenant="default"} %d`, lowBytes),
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestWhatIfQuerySpansInsideFanout pins the per-query timing spans a
// traced /whatif carries: exactly one query:<name> span per workload
// query, each with a plausible duration and contained in the one fanout
// span that times the whole evaluation.
func TestWhatIfQuerySpansInsideFanout(t *testing.T) {
	f := newFixture(t)
	var got WhatIfResponse
	f.post(t, "/whatif", WhatIfRequest{Trace: true, Indexes: []IndexSpec{{Table: "fact", Columns: []string{"fk_dim1_1"}}}}, &got)
	if got.Trace == nil {
		t.Fatal("traced request returned no trace block")
	}
	var fanout []obs.Span
	perQuery := make(map[string][]obs.Span)
	for _, sp := range got.Trace.Spans {
		switch {
		case sp.Name == "fanout":
			fanout = append(fanout, sp)
		case strings.HasPrefix(sp.Name, "query:"):
			name := strings.TrimPrefix(sp.Name, "query:")
			perQuery[name] = append(perQuery[name], sp)
		}
	}
	if len(fanout) != 1 {
		t.Fatalf("%d fanout spans, want 1", len(fanout))
	}
	fan := fanout[0]
	if len(perQuery) != len(f.queries) {
		t.Errorf("query spans name %d queries, want the %d workload queries", len(perQuery), len(f.queries))
	}
	for _, q := range f.queries {
		spans := perQuery[q.Name]
		if len(spans) != 1 {
			t.Errorf("query %s: %d spans, want exactly 1", q.Name, len(spans))
			continue
		}
		sp := spans[0]
		if sp.DurNs < 0 || sp.StartNs < fan.StartNs || sp.StartNs+sp.DurNs > fan.StartNs+fan.DurNs {
			t.Errorf("query %s span [%d,+%d] not inside fanout [%d,+%d]", q.Name, sp.StartNs, sp.DurNs, fan.StartNs, fan.DurNs)
		}
	}
}

// TestTraceHeader pins the out-of-band opt-in: an X-Pinum-Trace header
// traces the request under the caller's ID without any body change.
func TestTraceHeader(t *testing.T) {
	f := newFixture(t)
	data, _ := json.Marshal(WhatIfRequest{})
	req, err := http.NewRequest(http.MethodPost, f.ts.URL+"/whatif", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, "caller-supplied-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got WhatIfResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || got.Trace.ID != "caller-supplied-7" {
		t.Fatalf("header-traced response trace = %+v, want caller's ID", got.Trace)
	}
}

// TestUntracedBytesUnchanged pins byte-identity: tracing is invisible to
// requests that did not ask for it — no "trace" key, and a traced
// request in between does not perturb later untraced answers.
func TestUntracedBytesUnchanged(t *testing.T) {
	rf := newReloadFixture(t, nil)
	rf.load(t)
	code, baseline := rf.do(t, http.MethodPost, "/whatif", whatIfProbe)
	if code != http.StatusOK {
		t.Fatalf("baseline: %d %s", code, baseline)
	}
	if bytes.Contains(baseline, []byte(`"trace"`)) {
		t.Fatal("untraced response carries a trace key")
	}
	traced := whatIfProbe
	traced.Trace = true
	if code, body := rf.do(t, http.MethodPost, "/whatif", traced); code != http.StatusOK {
		t.Fatalf("traced probe: %d %s", code, body)
	} else if !bytes.Contains(body, []byte(`"trace"`)) {
		t.Fatal("traced response missing trace block")
	}
	if _, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe); !bytes.Equal(body, baseline) {
		t.Fatalf("untraced response diverged after a traced request:\n%s\nvs baseline\n%s", body, baseline)
	}
}

// TestEventzRecordsReloads pins the flight recorder: a forced reload
// lands in /eventz with the swap's fingerprint in the detail, and the
// ring reports its totals.
func TestEventzRecordsReloads(t *testing.T) {
	rf := newReloadFixture(t, nil)
	rf.load(t)
	out, err := rf.srv.ReloadNow(true)
	if err != nil {
		t.Fatal(err)
	}
	code, body := rf.do(t, http.MethodGet, "/eventz", nil)
	if code != http.StatusOK {
		t.Fatalf("/eventz: %d %s", code, body)
	}
	var ez struct {
		Total    int64       `json:"total"`
		Capacity int         `json:"capacity"`
		Events   []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &ez); err != nil {
		t.Fatal(err)
	}
	if ez.Capacity != obs.DefaultEventLogSize {
		t.Errorf("capacity %d, want default %d", ez.Capacity, obs.DefaultEventLogSize)
	}
	if ez.Total < 2 || int64(len(ez.Events)) != ez.Total {
		t.Fatalf("total=%d events=%d, want >= 2 (initial load + forced reload)", ez.Total, len(ez.Events))
	}
	reloads := 0
	for _, e := range ez.Events {
		if e.Type == "reload" {
			reloads++
			if e.Tenant != DefaultTenant || !strings.Contains(e.Detail, out.Fingerprint) {
				t.Errorf("reload event %+v, want tenant %q and fingerprint %s in detail",
					e, DefaultTenant, out.Fingerprint)
			}
		}
		if e.Seq == 0 || e.Time.IsZero() {
			t.Errorf("event missing seq/time: %+v", e)
		}
	}
	if reloads != 2 {
		t.Errorf("%d reload events, want 2", reloads)
	}
	body2 := scrape(t, rf.ts.URL)
	if !strings.Contains(body2, `pinum_events_total{type="reload"} 2`) {
		t.Error("pinum_events_total missing the reload count")
	}
}

// TestUnmatchedPathCounted pins the 404 catch-all: probes for unknown
// paths are a counted JSON 404 — one counter, no per-path series.
func TestUnmatchedPathCounted(t *testing.T) {
	f := newFixture(t)
	for _, path := range []string{"/nope", "/admin/login"} {
		resp, err := http.Get(f.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var payload map[string]string
		json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(payload["error"], path) {
			t.Errorf("GET %s: error %q does not name the path", path, payload["error"])
		}
	}

	body := scrape(t, f.ts.URL)
	if !strings.Contains(body, "pinum_http_unmatched_total 2") {
		t.Error("/metrics missing pinum_http_unmatched_total 2")
	}
	if strings.Contains(body, "/nope") || strings.Contains(body, "/admin/login") {
		t.Error("unmatched paths leaked into metric series (cardinality hazard)")
	}

	resp, err := http.Get(f.ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statz struct {
		Unmatched int64 `json:"unmatched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if statz.Unmatched != 2 {
		t.Errorf("statz unmatched = %d, want 2", statz.Unmatched)
	}
}

// TestSlowRequestEvent pins the slow-request threshold: a request over
// the configured budget files an event naming the endpoint.
func TestSlowRequestEvent(t *testing.T) {
	rf := newReloadFixture(t, func(cfg *Config) { cfg.SlowRequest = time.Nanosecond })
	rf.load(t)
	if code, body := rf.do(t, http.MethodPost, "/whatif", whatIfProbe); code != http.StatusOK {
		t.Fatalf("/whatif: %d %s", code, body)
	}
	_, body := rf.do(t, http.MethodGet, "/eventz", nil)
	var ez struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &ez); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ez.Events {
		if e.Type == "slow-request" && strings.Contains(e.Detail, "/whatif") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow-request event for /whatif in %s", body)
	}
}

// TestStatzDerivedFromRegistry checks /statz stays consistent with the
// registry after migration: the endpoint map and the Prometheus series
// report the same request counts.
func TestStatzDerivedFromRegistry(t *testing.T) {
	f := newFixture(t)
	f.post(t, "/whatif", WhatIfRequest{}, nil)
	f.post(t, "/whatif", WhatIfRequest{}, nil)
	f.post(t, "/whatif", WhatIfRequest{}, nil)

	resp, err := http.Get(f.ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statz struct {
		Endpoints map[string]EndpointStats `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ep := statz.Endpoints["/whatif"]
	if ep.Requests != 3 {
		t.Fatalf("statz /whatif requests = %d, want 3", ep.Requests)
	}
	if ep.AvgMs <= 0 || ep.MaxMs < ep.AvgMs {
		t.Errorf("statz latency stats inconsistent: avg=%v max=%v", ep.AvgMs, ep.MaxMs)
	}
	body := scrape(t, f.ts.URL)
	if !strings.Contains(body, `pinum_http_requests_total{endpoint="/whatif"} 3`) {
		t.Error("registry and /statz disagree on /whatif request count")
	}
}

// TestRequestRecordAllocFree is the pin the //pinum:allocfree directive
// on Server.record cites: with tracing off and no structured logger, the
// per-request bookkeeping tail performs zero allocations.
func TestRequestRecordAllocFree(t *testing.T) {
	f := newFixture(t)
	if f.srv.logger != nil {
		t.Fatal("fixture unexpectedly configured a logger")
	}
	m := f.srv.epFor("/whatif")
	allocs := testing.AllocsPerRun(1000, func() {
		f.srv.record("/whatif", m, 750*time.Microsecond, http.StatusOK, nil)
	})
	if allocs != 0 {
		t.Fatalf("record allocates %v per call on the tracing-off path, want 0", allocs)
	}
}

// BenchmarkRequestRecord measures the observability tax on the serving
// hot path with tracing and logging off; the 0 allocs/op report is the
// second pin behind record's //pinum:allocfree directive.
func BenchmarkRequestRecord(b *testing.B) {
	srv, err := New(Config{Loader: func() (*Environment, error) {
		return nil, fmt.Errorf("never loaded")
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	m := srv.epFor("/bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.record("/bench", m, 750*time.Microsecond, http.StatusOK, nil)
	}
}
