package main

// Per-layer aggregation of a traced pass: span self times per stage,
// residency and runtime counters from the /statz and /metrics scrapes,
// and the engine counters /recommend reports in its response.

import (
	"encoding/json"
	"strings"

	"github.com/pinumdb/pinum/internal/obs"
	"github.com/pinumdb/pinum/internal/serve"
)

// spanStats collects per-request span durations (µs) by stage.
type spanStats struct {
	decode, encode, load, fanout, fanoutSelf, query, advisor, optimize []float64
}

func (ss *spanStats) add(tv *obs.TraceView) {
	var fan *obs.Span
	var queries []interval
	for i := range tv.Spans {
		s := &tv.Spans[i]
		us := float64(s.DurNs) / 1e3
		switch {
		case s.Name == "decode":
			ss.decode = append(ss.decode, us)
		case s.Name == "encode":
			ss.encode = append(ss.encode, us)
		case s.Name == "load":
			ss.load = append(ss.load, us)
		case s.Name == "fanout":
			ss.fanout = append(ss.fanout, us)
			fan = s
		case strings.HasPrefix(s.Name, "query:"):
			ss.query = append(ss.query, us)
			queries = append(queries, interval{s.StartNs, s.StartNs + s.DurNs})
		case s.Name == "advisor":
			ss.advisor = append(ss.advisor, us/1e3)
		case s.Name == "optimize":
			ss.optimize = append(ss.optimize, us)
		}
	}
	if fan != nil {
		within := interval{fan.StartNs, fan.StartNs + fan.DurNs}
		ss.fanoutSelf = append(ss.fanoutSelf, float64(fan.DurNs-covered(queries, within))/1e3)
	}
}

// engineTotals sums the costmatrix counters over served /recommend
// answers.
type engineTotals struct {
	requests                          int
	candidateEvals, queryEvals, skips int64
}

func (et *engineTotals) add(body []byte) error {
	var resp serve.RecommendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	et.requests++
	et.candidateEvals += resp.Engine.CandidateEvals
	et.queryEvals += resp.Engine.QueryEvals
	et.skips += resp.Engine.QuerySkips
	return nil
}

// skipRatio is skipped query evaluations over all the engine considered
// (evaluated + skipped).
func (et *engineTotals) skipRatio() float64 {
	if et.queryEvals+et.skips == 0 {
		return 0
	}
	return float64(et.skips) / float64(et.queryEvals+et.skips)
}

// passCounters are the server-side counter deltas over one measured
// phase.
type passCounters struct {
	requests, coldLoads, evictions, rejected int64
	interned                                 int64
	gcCycles, gcPauseMs, heapMB              float64
}

func diffCounters(s0, s1 *statz, m0, m1 map[string]float64) passCounters {
	delta := func(f func(serve.TenantStats) int64) int64 { return s1.sum(f) - s0.sum(f) }
	return passCounters{
		requests:  delta(func(t serve.TenantStats) int64 { return t.Requests }),
		coldLoads: delta(func(t serve.TenantStats) int64 { return t.ColdLoads }),
		evictions: delta(func(t serve.TenantStats) int64 { return t.Evictions }),
		rejected:  s1.Rejected - s0.Rejected,
		interned:  s1.sum(func(t serve.TenantStats) int64 { return int64(t.InternedIndexes) }),
		gcCycles:  m1["pinum_gc_cycles_total"] - m0["pinum_gc_cycles_total"],
		gcPauseMs: 1e3 * (m1["pinum_gc_pause_seconds_total"] - m0["pinum_gc_pause_seconds_total"]),
		heapMB:    m1["pinum_heap_alloc_bytes"] / (1 << 20),
	}
}

func countStatus(outs []outcome, status int) int64 {
	var n int64
	for i := range outs {
		if outs[i].status == status {
			n++
		}
	}
	return n
}
