// Command e2ebench is the end-to-end benchmark for pinum-serve. It starts
// a real pinum-serve child on a fresh snapshot store, drives it open loop
// at fixed arrival rates with a seeded request stream, checks every
// answer against an in-process recomputation, and reports end-to-end
// metrics from an untraced pass. With --trace 1 it replays the identical
// schedule against a fresh server with X-Pinum-Trace on every request and
// reports the per-layer breakdown instead.
//
//	e2ebench --workload whatif-hot --seed 1 --seconds 10 --trace 0 \
//	    --server .bench_build/bin/pinum-serve --workdir .bench_build/work
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit status is non-zero when any answer check or the server's
// lifecycle (readiness, SIGTERM drain) fails. See run.sh for the wrapper
// that builds both binaries from the enclosing checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// lateBoundMs is the generator's validity bound: a pass whose p99
// dispatch lateness exceeds it did not hold its schedule, and its
// latencies describe the host rather than the server.
const lateBoundMs = 10.0

// setupReps is how many server set-ups an untraced run times; the median
// is setup_s. A traced run sets up once per pass.
const setupReps = 9

type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note is the report's sample count or ratio base.
	Note string `json:"-"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wlName := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for every generated request stream")
	seconds := flag.Float64("seconds", 10, "length of each measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	serverBin := flag.String("server", "", "pinum-serve binary")
	workdir := flag.String("workdir", "", "directory for the servers' snapshot stores")
	flag.Parse()
	if *serverBin == "" || *workdir == "" {
		fatalf("--server and --workdir are required")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatalf("%v", err)
	}

	var wls []workloadDef
	if *wlName == "all" {
		wls = workloads
	} else {
		wl, err := findWorkload(*wlName)
		if err != nil {
			fatalf("%v", err)
		}
		wls = []workloadDef{wl}
	}

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range wls {
		b := &bench{wl: wl, seed: *seed, seconds: *seconds, traced: *trace == 1,
			server: *serverBin, work: *workdir}
		res, err := b.run()
		if err != nil {
			fatalf("%s: %v", wl.name, err)
		}
		if err := checkLayout("BENCHMARK.json", res.Metrics, b.traced); err != nil {
			fatalf("%v", err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(wls) > 1 {
				name = wl.name + "/" + name
			}
			total.Metrics[name] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

// checkLayout keeps the code and BENCHMARK.json in step: the metrics a
// run reports must be exactly the declared end_to_end (or, traced,
// per_layer) list, with the declared units. A missing file (the binary
// run outside a checkout) skips the check.
func checkLayout(path string, got map[string]metric, traced bool) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	var layout struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &layout); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := layout.EndToEnd
	if traced {
		want = layout.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("%s declares %d metrics for this mode, the run reported %d", path, len(want), len(got))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok || m.Unit != w.Unit {
			return fmt.Errorf("%s declares %s in %s; the run reported %+v", path, w.Name, w.Unit, m)
		}
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}

// bench is one workload's run.
type bench struct {
	wl      workloadDef
	seed    int64
	seconds float64
	traced  bool
	server  string
	work    string

	in    *inputs
	v     *verifier
	conns int

	failed   int
	failures []string
}

// pass is one measured phase against one server.
type pass struct {
	outs       []outcome
	cpuSec     float64
	cpuWindows []float64
	rssMB      float64
	counters   passCounters
	enumStates float64
}

func (b *bench) run() (*result, error) {
	var err error
	if b.in, err = makeInputs(b.wl, b.seed, b.seconds); err != nil {
		return nil, err
	}
	if b.v, err = newVerifier(b.in); err != nil {
		return nil, err
	}
	b.conns = runtime.NumCPU()

	reps := setupReps
	if b.traced {
		reps = 1
	}
	var setups []setup
	var srv *child
	for k := 0; k < reps; k++ {
		c, su, err := b.setUp()
		if err != nil {
			return nil, err
		}
		setups = append(setups, su)
		if k < reps-1 {
			if err := c.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = c
	}
	plain, err := b.measure(srv, false)
	if err != nil {
		return nil, err
	}
	for i := range plain.outs {
		if _, err := b.v.check(&b.in.schedule[i], &plain.outs[i], false); err != nil {
			b.fail(err)
		}
	}
	acc, err := b.v.accuracy(b.in.schedule, plain.outs, b.seed)
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: len(plain.outs), Metrics: map[string]metric{}}
	e2e := b.endToEnd(setups, plain, acc)
	fmt.Printf("== %s (seed %d, %.0fs open loop, %d connections) — end to end, untraced pass\n   %s\n",
		b.wl.name, b.seed, b.seconds, b.conns, b.wl.why)
	printMetrics(e2e)
	b.printLateness(plain.outs)

	if b.traced {
		srv, _, err := b.setUp()
		if err != nil {
			return nil, err
		}
		tp, err := b.measure(srv, true)
		if err != nil {
			return nil, err
		}
		res.Attempted += len(tp.outs)
		layers, err := b.layers(plain, tp, acc)
		if err != nil {
			return nil, err
		}
		fmt.Printf("== %s — per layer, traced pass over the identical schedule\n", b.wl.name)
		printMetrics(layers)
		for _, m := range layers {
			res.Metrics[m.Name] = m
		}
	} else {
		for _, m := range e2e {
			if boundedE2E[m.Name] {
				res.Metrics[m.Name] = m
			}
		}
	}
	res.Failed = b.failed
	res.Correct = b.failed == 0
	for _, f := range b.failures {
		fmt.Println("FAILED:", f)
	}
	return res, nil
}

func (b *bench) fail(err error) {
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, err.Error())
	}
}

// setup is one server set-up's cost: the wall time and the server's own
// CPU time from launch until /readyz is 200 and every roster tenant has
// answered once — which includes the optimizer calls that build every
// tenant's caches.
type setup struct {
	wall time.Duration
	cpu  float64
}

// setUp launches a server on a fresh, empty store, brings it to ready
// and warms every roster tenant.
func (b *bench) setUp() (*child, setup, error) {
	t0 := time.Now()
	c, err := startServer(b.server, b.work, b.wl)
	if err != nil {
		return nil, setup{}, err
	}
	if err := c.waitReady(60 * time.Second); err != nil {
		c.kill()
		return nil, setup{}, err
	}
	if err := c.warmUp(b.wl.roster); err != nil {
		c.kill()
		return nil, setup{}, err
	}
	wall := time.Since(t0)
	cpu, err := c.cpuSeconds()
	if err != nil {
		c.kill()
		return nil, setup{}, err
	}
	return c, setup{wall: wall, cpu: cpu}, nil
}

// measure runs the schedule against c, scraping counters and CPU around
// it, then tears c down with a checked SIGTERM drain and reads its peak
// memory from the exit status.
func (b *bench) measure(c *child, traced bool) (p *pass, err error) {
	defer func() {
		if err != nil {
			c.kill()
		}
	}()
	s0, err := c.statz()
	if err != nil {
		return nil, err
	}
	m0, err := c.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	// The generator must not collect garbage mid-phase: a concurrent
	// mark on a small host steals the CPU the server is being timed on.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	var completed atomic.Int64
	stopSampling := make(chan struct{})
	sampled := make(chan []float64)
	go func() { sampled <- sampleCPU(c, &completed, cpu0, stopSampling) }()
	outs := runOpenLoop(c.base, b.in.schedule, b.conns, traced, &completed)
	close(stopSampling)
	windows := <-sampled
	debug.SetGCPercent(gc)
	cpu1, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	s1, err := c.statz()
	if err != nil {
		return nil, err
	}
	m1, err := c.metrics()
	if err != nil {
		return nil, err
	}
	if err := c.stop(); err != nil {
		return nil, err
	}
	rss, err := c.peakRSSMB()
	if err != nil {
		return nil, err
	}
	return &pass{outs: outs, cpuSec: cpu1 - cpu0, cpuWindows: windows, rssMB: rss,
		counters: diffCounters(s0, s1, m0, m1), enumStates: m0["pinum_planner_enum_states"]}, nil
}

// cpuWindow is the CPU sampling period. Two seconds hold one full cycle
// of the /recommend parameter grid (24 pairs at 12 req/s) and three
// tenant blocks of tenant-churn, so every window sees the same mix.
const cpuWindow = 2 * time.Second

// sampleCPU reads the server's CPU clock every cpuWindow until stop and
// returns each full window's CPU milliseconds per completed request.
func sampleCPU(c *child, completed *atomic.Int64, cpu0 float64, stop <-chan struct{}) []float64 {
	tick := time.NewTicker(cpuWindow)
	defer tick.Stop()
	var windows []float64
	prevCPU, prevDone := cpu0, int64(0)
	for {
		select {
		case <-stop:
			return windows
		case <-tick.C:
			cpu, err := c.cpuSeconds()
			done := completed.Load()
			if err != nil || done == prevDone {
				continue
			}
			windows = append(windows, 1e3*(cpu-prevCPU)/float64(done-prevDone))
			prevCPU, prevDone = cpu, done
		}
	}
}

// cpuPerReq is the pass's server CPU per completed request: the median
// over the sampling windows, so a burst of host noise in one window does
// not move it; the whole-phase ratio when the phase was too short.
func (p *pass) cpuPerReq() float64 {
	if len(p.cpuWindows) >= 3 {
		return median(p.cpuWindows)
	}
	return 1e3 * p.cpuSec / float64(max(okCount(p.outs), 1))
}

func latencies(schedule []request, outs []outcome, class string) []float64 {
	var ms []float64
	for i := range outs {
		if schedule[i].class == class {
			ms = append(ms, float64(outs[i].latency.Nanoseconds())/1e6)
		}
	}
	return ms
}

func okCount(outs []outcome) int {
	n := 0
	for i := range outs {
		if outs[i].ok() {
			n++
		}
	}
	return n
}

// boundedE2E names the end-to-end metrics the JSON result carries (the
// end_to_end list of BENCHMARK.json): the ones that repeat across runs
// on a shared host. Wall times — latencies from the scheduled send time,
// set-up to ready — track the host's CPU steal as much as the server, so
// they are reported here (latencies also in the traced run's layer
// list) but carry no regression bound; CPU clocks exclude steal.
var boundedE2E = map[string]bool{"setup_s": true, "cpu_ms_per_req": true, "rss_peak_mb": true}

// classTails are the latency percentiles reported per request class:
// p99 where a run yields thousands of requests, p90 for /recommend,
// which yields hundreds.
var classTails = []struct {
	class string
	q     float64
}{{classWhatIf, 0.99}, {classRecommend, 0.9}, {classExplain, 0.99}}

// classLatency returns the p50 and tail metrics of one class in a pass
// (zero when the workload sends none).
func classLatency(schedule []request, outs []outcome, class string, q float64) []metric {
	l := latencies(schedule, outs, class)
	note := fmt.Sprintf("from scheduled send, n=%d", len(l))
	return []metric{
		{class + "_p50_ms", median(l), "ms", note},
		{fmt.Sprintf("%s_p%g_ms", class, q*100), quantile(l, q), "ms", note},
	}
}

// endToEnd is the untraced pass's end-to-end report, by the metric names
// of the layer map.
func (b *bench) endToEnd(setups []setup, p *pass, acc *accuracy) []metric {
	completed := okCount(p.outs)
	var wall, cpu []float64
	for _, su := range setups {
		wall = append(wall, su.wall.Seconds())
		cpu = append(cpu, su.cpu)
	}
	note := fmt.Sprintf("median of %d set-ups to ready + %d tenants warmed", len(setups), len(b.wl.roster))
	out := []metric{
		{"setup_s", median(cpu), "s", "server CPU, " + note},
		{"setup_wall_s", median(wall), "s", note},
	}
	for _, ct := range classTails {
		if b.wl.rates[ct.class] > 0 {
			out = append(out, classLatency(b.in.schedule, p.outs, ct.class, ct.q)...)
		}
	}
	return append(out,
		metric{"cpu_ms_per_req", p.cpuPerReq(), "ms",
			fmt.Sprintf("median of %d %v windows; whole phase %.2f s server CPU / %d completed, %d cold loads",
				len(p.cpuWindows), cpuWindow, p.cpuSec, completed, p.counters.coldLoads)},
		metric{"rss_peak_mb", p.rssMB, "MiB", "server peak RSS (ru_maxrss at exit)"},
		metric{"failed_ratio", float64(b.failed) / float64(len(p.outs)), "ratio",
			fmt.Sprintf("%d failed / %d attempted", b.failed, len(p.outs))},
		metric{"cost_error_max_pct", acc.maxErrPct, "%",
			fmt.Sprintf("max over %d configs x %d queries vs optimizer.Optimize", acc.configs, len(b.in.tenants[0].queries))},
	)
}

func lateness(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i := range outs {
		ms[i] = float64(outs[i].late.Nanoseconds()) / 1e6
	}
	return ms
}

func (b *bench) printLateness(outs []outcome) {
	l := lateness(outs)
	p99 := quantile(l, 0.99)
	verdict := "valid"
	if p99 > lateBoundMs {
		verdict = fmt.Sprintf("INVALID: generator p99 lateness above %.0f ms", lateBoundMs)
	}
	fmt.Printf("  generator lateness p50 %.3f ms, p99 %.3f ms (n=%d): %s\n", median(l), p99, len(l), verdict)
}

func (b *bench) layers(plain, tp *pass, acc *accuracy) ([]metric, error) {
	var ss spanStats
	var et engineTotals
	for i := range tp.outs {
		r, o := &b.in.schedule[i], &tp.outs[i]
		tv, err := b.v.check(r, o, true)
		if err != nil {
			b.fail(err)
			continue
		}
		if tv != nil {
			ss.add(tv)
		}
		if r.class == classRecommend {
			if err := et.add(o.body); err != nil {
				return nil, err
			}
		}
	}
	pr, err := runProbes(b.in)
	if err != nil {
		return nil, err
	}
	late := lateness(plain.outs)
	reload := latencies(b.in.schedule, tp.outs, classReload)
	pc := tp.counters
	plainCPU, tracedCPU := plain.cpuPerReq(), tp.cpuPerReq()
	hit := 1.0
	if pc.requests > 0 {
		hit = 1 - float64(pc.coldLoads)/float64(pc.requests)
	}
	n := func(xs []float64) string { return fmt.Sprintf("n=%d", len(xs)) }
	var lat []metric
	for _, ct := range classTails {
		for _, m := range classLatency(b.in.schedule, plain.outs, ct.class, ct.q) {
			m.Name = "http." + m.Name
			m.Note = "untraced pass, " + m.Note
			lat = append(lat, m)
		}
	}
	return append(lat, []metric{
		{"loadgen.late_p50_ms", median(late), "ms", n(late) + ", untraced pass"},
		{"loadgen.late_p99_ms", quantile(late, 0.99), "ms", fmt.Sprintf("%s, bound %.0f ms", n(late), lateBoundMs)},
		{"serve.decode_us", median(ss.decode), "us", "p50 " + n(ss.decode)},
		{"serve.encode_us", median(ss.encode), "us", "p50 " + n(ss.encode)},
		{"serve.load_us_p50", median(ss.load), "us", n(ss.load)},
		{"serve.load_us_p99", quantile(ss.load, 0.99), "us", n(ss.load)},
		{"serve.cold_loads", float64(pc.coldLoads), "count", "measured phase"},
		{"serve.evictions", float64(pc.evictions), "count", "measured phase"},
		{"serve.resident_hit_ratio", hit, "ratio", fmt.Sprintf("1 - %d cold loads / %d tenant requests", pc.coldLoads, pc.requests)},
		{"serve.reload_ms", median(reload), "ms", "forced reload p50 " + n(reload)},
		{"serve.interned_indexes", float64(pc.interned), "count", "/statz, end of pass"},
		{"serve.rejected", float64(pc.rejected), "count", "429s"},
		{"serve.timeouts", float64(countStatus(tp.outs, http.StatusGatewayTimeout)), "count", "504s"},
		{"core.fanout_us", median(ss.fanout), "us", "p50 " + n(ss.fanout)},
		{"core.fanout_self_us", median(ss.fanoutSelf), "us", "p50 of fanout minus query:* cover, " + n(ss.fanoutSelf)},
		{"inum.cost_us", median(ss.query), "us", "p50 query:* span " + n(ss.query)},
		{"inum.cost_sum_us", pr.costSumUs, "us", fmt.Sprintf("in-process, p50 of sum over queries, %d configs", len(b.in.probeConfigs))},
		{"inum.cost_q10_us", pr.costWidestUs, "us", fmt.Sprintf("in-process, widest query (%d tables)", pr.costWidestTables)},
		{"inum.cost_error_max_pct", acc.maxErrPct, "%", fmt.Sprintf("served cost vs optimizer.Optimize, max over %d sampled configs", acc.configs)},
		{"advisor.run_ms_p50", median(ss.advisor), "ms", n(ss.advisor)},
		{"advisor.run_ms_p90", quantile(ss.advisor, 0.9), "ms", n(ss.advisor)},
		{"costmatrix.candidate_evals", float64(et.candidateEvals), "count", fmt.Sprintf("over %d /recommend", et.requests)},
		{"costmatrix.query_evals", float64(et.queryEvals), "count", fmt.Sprintf("over %d /recommend", et.requests)},
		{"costmatrix.skip_ratio", et.skipRatio(), "ratio", fmt.Sprintf("%d skips / %d evaluated+skipped", et.skips, et.queryEvals+et.skips)},
		{"optimizer.optimize_us_p50", median(ss.optimize), "us", "/explain span " + n(ss.optimize)},
		{"optimizer.optimize_us_p99", quantile(ss.optimize, 0.99), "us", "/explain span " + n(ss.optimize)},
		{"optimizer.plan_us", pr.planUs, "us", fmt.Sprintf("in-process NewAnalysis+Optimize p50, %d statements", len(b.in.sqlCorpus))},
		{"optimizer.check_us", median(acc.optimizeUs), "us", "in-process Optimize p50 in the accuracy check " + n(acc.optimizeUs)},
		{"optimizer.enum_states", plain.enumStates, "count", "pinum_planner_enum_states after warm-up"},
		{"sql.parse_bind_us", pr.parseBindUs, "us", fmt.Sprintf("in-process p50, %d statements", len(b.in.sqlCorpus))},
		{"plancache.decode_us", pr.decodeUs, "us", "in-process, largest roster snapshot"},
		{"plancache.build_caches_us", pr.buildCachesUs, "us", "in-process, largest roster snapshot"},
		{"plancache.snapshot_bytes", pr.snapshotBytes, "bytes", "largest roster snapshot"},
		{"core.build_slim_ms", pr.buildSlimMs, "ms", "in-process BuildAllSlim, first tenant, p50 of 3"},
		{"runtime.gc_cycles", pc.gcCycles, "count", "measured phase"},
		{"runtime.gc_pause_ms", pc.gcPauseMs, "ms", "measured phase"},
		{"runtime.heap_mb", pc.heapMB, "MiB", "end of pass"},
		{"obs.trace_cpu_overhead_pct", 100 * (tracedCPU/plainCPU - 1), "%",
			fmt.Sprintf("traced %.4f vs untraced %.4f ms CPU/req", tracedCPU, plainCPU)},
	}...), nil
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-30s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
}
