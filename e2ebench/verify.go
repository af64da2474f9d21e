package main

// The answer check, run after each pass and off the timed path: every
// served body is recomputed in-process from the same roster — /whatif
// and /explain through serve's public API over independently built
// tree-backed caches, /recommend through a plain advisor.Run — and must
// match byte for byte once any trace block is stripped. The same step
// prices a seeded sample of the run's configurations with direct
// optimizer calls for the §VI-C accuracy figure.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"time"

	"github.com/pinumdb/pinum/internal/advisor"
	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/obs"
	"github.com/pinumdb/pinum/internal/optimizer"
	"github.com/pinumdb/pinum/internal/plancache"
	"github.com/pinumdb/pinum/internal/serve"
	"github.com/pinumdb/pinum/internal/storage"
	"github.com/pinumdb/pinum/internal/whatif"
)

// verifier holds the in-process reference for every roster tenant and
// memoizes expected bodies, since zipf traffic repeats requests.
type verifier struct {
	in       *inputs
	refs     map[string]*serve.Server
	expected map[string][]byte
	// chosen remembers each verified /recommend's reference selection
	// for the accuracy sample.
	chosen map[string][]*catalog.Index
}

func newVerifier(in *inputs) (*verifier, error) {
	v := &verifier{in: in, refs: map[string]*serve.Server{}, expected: map[string][]byte{},
		chosen: map[string][]*catalog.Index{}}
	for _, te := range in.tenants {
		srv, err := serve.New(serve.Config{
			Catalog: te.cat, Stats: te.stats, Queries: te.queries,
			Analyses: te.analyses, Caches: te.caches,
		})
		if err != nil {
			return nil, err
		}
		v.refs[te.spec.Name] = srv
	}
	return v, nil
}

// check verifies one outcome; a nil error means the answer is right.
// traced outcomes must carry a trace block, which is returned.
func (v *verifier) check(r *request, o *outcome, traced bool) (*obs.TraceView, error) {
	if o.err != nil {
		return nil, o.err
	}
	if o.status != 200 {
		return nil, fmt.Errorf("%s: status %d: %s", r.path, o.status, bytes.TrimSpace(o.body))
	}
	if r.class == classReload {
		return nil, v.checkReload(r, o.body)
	}
	served, tv, err := stripTrace(r.class, o.body)
	if err != nil {
		return nil, err
	}
	if traced && (tv == nil || len(tv.Spans) == 0) {
		return nil, fmt.Errorf("%s: traced request answered without spans", r.path)
	}
	want, err := v.expect(r)
	if err != nil {
		return nil, err
	}
	if r.class == classExplain {
		// Plan text names hypothetical indexes by the server's interner
		// sequence, which concurrent requests advance in arrival order.
		served, want = hypoName.ReplaceAll(served, []byte("${1}_N")), hypoName.ReplaceAll(want, []byte("${1}_N"))
	}
	if !bytes.Equal(bytes.TrimSpace(served), bytes.TrimSpace(want)) {
		return nil, fmt.Errorf("%s on tenant %s: served answer differs from the in-process result\nrequest: %s\nserved: %s\nwant: %s",
			r.path, r.tenant, r.body, bytes.TrimSpace(served), bytes.TrimSpace(want))
	}
	return tv, nil
}

var hypoName = regexp.MustCompile(`(hypo_\w+)_\d+\b`)

// stripTrace returns the body re-rendered without its trace block (or
// unchanged when untraced) plus the trace it carried.
func stripTrace(class string, body []byte) ([]byte, *obs.TraceView, error) {
	var probe struct {
		Trace *obs.TraceView `json:"trace"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, nil, fmt.Errorf("%s: bad response body: %w", class, err)
	}
	if probe.Trace == nil {
		return body, nil, nil
	}
	var v any
	switch class {
	case classWhatIf:
		v = &serve.WhatIfResponse{}
	case classRecommend:
		v = &serve.RecommendResponse{}
	case classExplain:
		v = &serve.ExplainResponse{}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, nil, err
	}
	switch r := v.(type) {
	case *serve.WhatIfResponse:
		r.Trace = nil
	case *serve.RecommendResponse:
		r.Trace = nil
	case *serve.ExplainResponse:
		r.Trace = nil
	}
	out, err := serve.EncodeJSON(v)
	return out, probe.Trace, err
}

func (v *verifier) expect(r *request) ([]byte, error) {
	key := r.tenant + " " + r.path + " " + string(r.body)
	if b, ok := v.expected[key]; ok {
		return b, nil
	}
	ref := v.refs[r.tenant]
	var resp any
	var err error
	switch r.class {
	case classWhatIf:
		var req serve.WhatIfRequest
		if err = json.Unmarshal(r.body, &req); err == nil {
			resp, err = ref.WhatIf(&req)
		}
	case classExplain:
		var req serve.ExplainRequest
		if err = json.Unmarshal(r.body, &req); err == nil {
			resp, err = ref.Explain(&req)
		}
	case classRecommend:
		var req serve.RecommendRequest
		if err = json.Unmarshal(r.body, &req); err == nil {
			var chosen []*catalog.Index
			resp, chosen, err = v.recommend(v.in.byName[r.tenant], &req)
			v.chosen[key] = chosen
		}
	default:
		err = fmt.Errorf("no reference for class %q", r.class)
	}
	if err != nil {
		return nil, fmt.Errorf("in-process %s: %w", r.path, err)
	}
	b, err := serve.EncodeJSON(resp)
	if err != nil {
		return nil, err
	}
	v.expected[key] = b
	return b, nil
}

// recommend is the plain in-process advisor run a served /recommend must
// equal: the tenant's workload with the request's weight overrides, its
// budget and index cap, and the advisor's own candidate generation.
func (v *verifier) recommend(te *tenantEnv, req *serve.RecommendRequest) (*serve.RecommendResponse, []*catalog.Index, error) {
	weights := make(map[string]float64, len(req.Weights))
	for _, w := range req.Weights {
		weights[w.Name] = w.Weight
	}
	ad := advisor.New(te.cat, te.stats, storage.BytesForGB(req.BudgetGB))
	ad.MaxIndexes = req.MaxIndexes
	for i, q := range te.queries {
		w := weights[q.Name]
		if w == 0 {
			w = 1
		}
		if err := ad.AddPrepared(q, te.analyses[i], te.caches[i], w); err != nil {
			return nil, nil, err
		}
	}
	res, err := ad.Run()
	if err != nil {
		return nil, nil, err
	}
	return serve.RecommendResponseFrom(res, te.queries), res.Chosen, nil
}

func (v *verifier) checkReload(r *request, body []byte) error {
	var out serve.ReloadOutcome
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("/reload: bad body: %w", err)
	}
	te := v.in.byName[r.tenant]
	fp := fmt.Sprintf("%016x", plancache.Fingerprint(te.cat, te.stats, optimizer.DefaultCostParams()))
	if out.Tenant != r.tenant || out.Result != "swapped" || out.Fingerprint != fp || out.QueriesRebuilt != len(te.queries) {
		return fmt.Errorf("/reload of %s: got %+v, want a forced swap to fingerprint %s rebuilding %d queries",
			r.tenant, out, fp, len(te.queries))
	}
	return nil
}

// accuracy is the §VI-C check over a seeded sample of the run's own
// configurations: the largest relative error of a served per-query cost
// against a direct optimizer.Optimize call, plus the timings of those
// calls.
type accuracy struct {
	maxErrPct  float64
	configs    int
	optimizeUs []float64
}

const accuracySample = 60

func (v *verifier) accuracy(schedule []request, outs []outcome, seed int64) (*accuracy, error) {
	acc := &accuracy{}
	sessions := map[string]*whatif.Session{}
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(schedule)) {
		if acc.configs >= accuracySample {
			break
		}
		r, o := &schedule[i], &outs[i]
		if !o.ok() || (r.class != classWhatIf && r.class != classRecommend) {
			continue
		}
		key := r.tenant + " " + r.path + " " + string(r.body)
		if seen[key] {
			continue
		}
		seen[key] = true
		te := v.in.byName[r.tenant]
		ws := sessions[r.tenant]
		if ws == nil {
			ws = whatif.NewSession(te.cat)
			sessions[r.tenant] = ws
		}
		var ixs []*catalog.Index
		var served []serve.QueryCost
		if r.class == classWhatIf {
			var req serve.WhatIfRequest
			var resp serve.WhatIfResponse
			if err := json.Unmarshal(r.body, &req); err != nil {
				return nil, err
			}
			if err := json.Unmarshal(o.body, &resp); err != nil {
				return nil, err
			}
			for _, s := range req.Indexes {
				ix, err := ws.CreateIndex(s.Table, s.Columns...)
				if err != nil {
					return nil, err
				}
				ixs = append(ixs, ix)
			}
			served = resp.Queries
		} else {
			var resp serve.RecommendResponse
			if err := json.Unmarshal(o.body, &resp); err != nil {
				return nil, err
			}
			ixs = v.chosen[key]
			served = resp.Queries
		}
		cfg := whatif.Config(ixs...)
		for qi, a := range te.analyses {
			t0 := time.Now()
			res, err := optimizer.Optimize(a, cfg, optimizer.Options{EnableNestLoop: true})
			acc.optimizeUs = append(acc.optimizeUs, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return nil, err
			}
			acc.maxErrPct = math.Max(acc.maxErrPct, 100*relErr(served[qi].Cost, res.Best.Cost))
		}
		acc.configs++
	}
	return acc, nil
}

func relErr(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
