package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"idio/internal/sim"
)

// options selects one benchmark run.
type options struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
}

// report is everything one run measured.
type report struct {
	workload string
	seed     int64
	trace    bool
	host     fingerprint
	digest   string
	steps    int
	setups   int
	pkts     uint64
	// notes are extra report lines printed before the metrics.
	notes   []string
	checks  checker
	metrics map[string]metric
}

// maxDrainSteps and maxRunTime bound the drain, so one that never
// settles fails a check instead of running on.
const (
	maxDrainSteps = 20000
	maxRunTime    = 150 * time.Second
)

// spans are the host seconds of one set-up's phases.
type spans struct {
	build, attach, start, warmup float64
}

func (s spans) total() float64 { return s.build + s.attach + s.start + s.warmup }

// snapshot is the simulated state at one step boundary.
type snapshot struct {
	rs     []hostResults
	events uint64
	rx     uint64
	used   uint64
}

// stepper advances one instance step by step, checking the watchdog
// at every boundary.
type stepper struct {
	w    workload
	inst instance
	chk  *checker
	now  sim.Time
}

// step runs one step and returns its host wall and CPU time.
func (s *stepper) step() (wall, cpu time.Duration) {
	s.now += sim.Time(s.w.step)
	c0 := cpuNow()
	t0 := time.Now()
	err := s.inst.advance(s.now)
	wall = time.Since(t0)
	cpu = cpuNow() - c0
	s.chk.noError("step.watchdog", err)
	return wall, cpu
}

// take collects the instance's results and timings of doing so.
func (s *stepper) take() (snapshot, float64) {
	t0 := time.Now()
	rs := s.inst.results()
	collect := time.Since(t0).Seconds()
	return snapshot{rs: rs, events: s.inst.events(rs), rx: s.inst.rx(), used: s.inst.consumed()}, collect
}

// digestOf hashes the stats dump of every host in a snapshot and
// returns the hash with the host seconds rendering took. The dump's
// pkt_pool.* lines are left out: they count one packet pool, and a
// sharded cluster gives every event domain a pool of its own, so
// those lines differ by shard count while the simulation does not.
func digestOf(sn snapshot) (string, float64, error) {
	t0 := time.Now()
	var buf bytes.Buffer
	for _, hr := range sn.rs {
		if err := hr.res.WriteStats(&buf); err != nil {
			return "", 0, err
		}
	}
	render := time.Since(t0).Seconds()
	h := sha256.New()
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("pkt_pool.")) {
			h.Write(line)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), render, nil
}

// freeMemory drops a finished instance's memory before the next
// set-up, so peak RSS reflects one instance at a time.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setUp builds, attaches, starts and warms up one instance of w and
// returns it with its phase timings.
func setUp(w workload, seed int64, budget uint64, chk *checker) (*stepper, spans, error) {
	var sp spans
	inst := w.newInstance(seed)
	t0 := time.Now()
	if err := inst.build(); err != nil {
		return nil, sp, fmt.Errorf("%s: build: %w", w.name, err)
	}
	t1 := time.Now()
	inst.attach(budget)
	t2 := time.Now()
	inst.start()
	t3 := time.Now()
	st := &stepper{w: w, inst: inst, chk: chk}
	for i := 0; i < w.warmup; i++ {
		st.step()
	}
	t4 := time.Now()
	sp = spans{
		build: t1.Sub(t0).Seconds(), attach: t2.Sub(t1).Seconds(),
		start: t3.Sub(t2).Seconds(), warmup: t4.Sub(t3).Seconds(),
	}
	return st, sp, nil
}

// window is what the digest window measured: the snapshots at both
// ends, the digest, the most events pending at a step boundary and
// the heap allocations of its steps.
type window struct {
	from, to   snapshot
	digest     string
	pendingMax int
	allocs     uint64
	collect    []float64
	render     float64
}

// runDigestWindow runs the digest steps that follow warm-up, adding
// each one's host time and packets to rec.
func runDigestWindow(st *stepper, rec *series) (window, error) {
	var win window
	var c float64
	win.from, c = st.take()
	win.collect = append(win.collect, c)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rx := win.from.rx
	for i := 0; i < st.w.digest; i++ {
		wall, cpu := st.step()
		now := st.inst.rx()
		rec.add(wall, cpu, now-rx)
		rx = now
		if p := st.inst.pending(); p > win.pendingMax {
			win.pendingMax = p
		}
	}
	runtime.ReadMemStats(&ms1)
	win.allocs = ms1.Mallocs - ms0.Mallocs
	win.to, c = st.take()
	win.collect = append(win.collect, c)
	d, render, err := digestOf(win.to)
	win.digest, win.render = d, render
	return win, err
}

// runBenchmark runs one workload at one seed: it sets the workload up
// several times, runs the timed steps on the last copy, drains its
// budget and checks the invariants.
func runBenchmark(o options) (*report, error) {
	start := time.Now()
	w := o.w
	rep := &report{workload: w.name, seed: o.seed, trace: o.trace, host: hostFingerprint()}
	chk := &rep.checks
	var setupSpans []spans
	var collects, renders []float64

	// The reference digest comes from the reference workload when this
	// one must reproduce another's.
	refDigest := ""
	if w.ref != "" {
		rw, _ := lookupWorkload(w.ref)
		st, _, err := setUp(rw, o.seed, unbounded, chk)
		if err != nil {
			return nil, err
		}
		scratch := newSeries(rw.digest)
		win, err := runDigestWindow(st, &scratch)
		if err != nil {
			return nil, err
		}
		refDigest = win.digest
		freeMemory()
	}

	// Reference copy: its digest window gives the digest every other
	// copy must reproduce and the budget used per step.
	st, sp, err := setUp(w, o.seed, unbounded, chk)
	if err != nil {
		return nil, err
	}
	setupSpans = append(setupSpans, sp)
	scratch := newSeries(w.digest)
	ref, err := runDigestWindow(st, &scratch)
	if err != nil {
		return nil, err
	}
	collects = append(collects, ref.collect...)
	renders = append(renders, ref.render)
	if refDigest == "" {
		refDigest = ref.digest
	} else {
		chk.expect("digest.reference", ref.digest == refDigest, "%s != %s (%s)", ref.digest, refDigest, w.ref)
	}
	steps := timedSteps(w, o.seconds)
	useRate := float64(ref.to.used-ref.from.used) / float64(w.digest)
	budget := ref.from.used + uint64(math.Ceil(useRate*float64(steps)*(1+w.slack)))
	st = nil
	freeMemory()

	// Extra copies, set up only for the set-up time median.
	for len(setupSpans) < w.setups-1 {
		_, sp, err := setUp(w, o.seed, budget, chk)
		if err != nil {
			return nil, err
		}
		setupSpans = append(setupSpans, sp)
		freeMemory()
	}

	// The timed copy.
	st, sp, err = setUp(w, o.seed, budget, chk)
	if err != nil {
		return nil, err
	}
	setupSpans = append(setupSpans, sp)
	tm, err := runTimed(st, steps, o.trace, refDigest)
	if err != nil {
		return nil, err
	}
	collects = append(collects, tm.win.collect...)
	renders = append(renders, tm.win.render)
	// A budget consumed in whole periods (slack 0) is spent exactly by
	// the last timed period; any other must still have some left.
	chk.expect("budget.outlasted", tm.usedAtEnd < budget || (w.slack == 0 && tm.usedAtEnd == budget),
		"budget %d spent before the timed steps ended (%d used)", budget, tm.usedAtEnd)

	// Drain the budget, then check the end-of-run invariants.
	drained := false
	for i := 0; i < maxDrainSteps && time.Since(start) < maxRunTime; i++ {
		if st.inst.drained() {
			drained = true
			break
		}
		st.step()
	}
	chk.expect("drain.settled", drained, "not drained after %d steps", maxDrainSteps)
	end, c := st.take()
	collects = append(collects, c)
	st.inst.check(chk, end.rs)

	rep.digest = tm.win.digest
	rep.steps = steps
	rep.setups = len(setupSpans)
	rep.pkts = tm.untraced.pkts() + tm.traced.pkts()
	if o.trace {
		rep.metrics = layerMetrics(w, tm, setupSpans, collects, renders)
		rep.metrics["fail_frac"] = metric{ratio(float64(chk.failed), float64(chk.attempted)), "ratio"}
	} else {
		rep.metrics = endToEnd(w, tm, setupSpans)
		rep.notes = append(rep.notes, fmt.Sprintf("allocs_per_pkt %g 1/pkt", tm.allocsPerPkt()))
	}
	return rep, nil
}

// timedSteps is the number of timed steps for a run of the given
// seconds. It depends on nothing measured, so every run of a
// workload, on any host and any commit, simulates the same work.
func timedSteps(w workload, seconds float64) int {
	// At least twice the digest steps: the budget then outlasts the
	// digest window with room to spare, and a traced run's untraced
	// half still holds the whole window.
	steps := int(math.Ceil(seconds * w.stepsPerSecond))
	if steps < 2*w.digest {
		steps = 2 * w.digest
	}
	return roundUp(steps, 2*w.period)
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// series holds the host time and packets of a set of steps.
type series struct {
	wall, cpu []time.Duration
	rx        []uint64
}

func newSeries(n int) series {
	// Preallocated, so recording a step allocates nothing.
	return series{make([]time.Duration, 0, n), make([]time.Duration, 0, n), make([]uint64, 0, n)}
}

func (s *series) add(wall, cpu time.Duration, rx uint64) {
	s.wall = append(s.wall, wall)
	s.cpu = append(s.cpu, cpu)
	s.rx = append(s.rx, rx)
}

func (s series) pkts() uint64 {
	var n uint64
	for _, x := range s.rx {
		n += x
	}
	return n
}

// timed is what the timed steps measured.
type timed struct {
	// win is the digest window, the first timed steps.
	win window
	// untraced holds every step without --trace 1; traced the steps
	// run under the CPU profiler.
	untraced, traced series
	traceEvents      uint64
	profile          selfTime
	gcCycles         uint32
	gcPause          time.Duration
	heapInuse        uint64
	usedAtEnd        uint64
}

// runTimed runs the timed steps on st. The first digest steps double
// as the digest window. With trace, the steps after the window
// alternate in blocks between untraced and traced, so both halves see
// the same stretch of the run and their difference is the tracing
// overhead.
func runTimed(st *stepper, steps int, trace bool, refDigest string) (timed, error) {
	var tm timed
	w := st.w
	tm.untraced, tm.traced = newSeries(steps), newSeries(steps)
	win, err := runDigestWindow(st, &tm.untraced)
	if err != nil {
		return tm, err
	}
	tm.win = win
	st.chk.expect("digest.timed", win.digest == refDigest, "%s != %s", win.digest, refDigest)

	// Twenty blocks, each whole traffic periods.
	block := roundUp((steps-w.digest)/20, w.period)
	if block < w.period {
		block = w.period
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	profiling := false
	var ev0 uint64
	rx := st.inst.rx()
	for i := w.digest; i < steps; i++ {
		if want := trace && (i-w.digest)/block%2 == 1; want != profiling {
			if err := tm.toggleProfile(st, want, &prof, &ev0); err != nil {
				return tm, err
			}
			profiling = want
		}
		wall, cpu := st.step()
		now := st.inst.rx()
		if profiling {
			tm.traced.add(wall, cpu, now-rx)
		} else {
			tm.untraced.add(wall, cpu, now-rx)
		}
		rx = now
	}
	if profiling {
		if err := tm.toggleProfile(st, false, &prof, &ev0); err != nil {
			return tm, err
		}
	}
	runtime.ReadMemStats(&ms1)
	tm.gcCycles = ms1.NumGC - ms0.NumGC
	tm.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	tm.heapInuse = ms1.HeapInuse
	tm.usedAtEnd = st.inst.consumed()
	return tm, nil
}

// toggleProfile starts the CPU profiler, or stops it and folds the
// block's samples and events into tm.
func (tm *timed) toggleProfile(st *stepper, on bool, prof *bytes.Buffer, ev0 *uint64) error {
	if on {
		prof.Reset()
		*ev0 = st.inst.events(st.inst.results())
		if err := pprof.StartCPUProfile(prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}
	pprof.StopCPUProfile()
	tm.traceEvents += st.inst.events(st.inst.results()) - *ev0
	p, err := foldProfile(prof.Bytes())
	if err != nil {
		return err
	}
	tm.profile.add(p)
	return nil
}

// throughput returns packets per host second and CPU nanoseconds per
// packet of a typical traffic period: for each step position within
// the period it takes the median over periods of that step's time,
// and sums them. A step the hypervisor took the CPU away from is then
// an outlier rather than a slower simulation; step_ms_p99 still shows
// slow steps.
func throughput(s series, period int) (pktsPerS, cpuNsPerPkt float64) {
	periods := len(s.wall) / period
	if periods == 0 {
		return 0, 0
	}
	var pkts uint64
	for _, n := range s.rx[:periods*period] {
		pkts += n
	}
	perPeriod := float64(pkts) / float64(periods)
	var wallNs, cpuNs float64
	for pos := 0; pos < period; pos++ {
		var ws, cs []float64
		for i := pos; i < periods*period; i += period {
			ws = append(ws, float64(s.wall[i].Nanoseconds()))
			cs = append(cs, float64(s.cpu[i].Nanoseconds()))
		}
		wallNs += median(ws)
		cpuNs += median(cs)
	}
	return ratio(perPeriod*1e9, wallNs), ratio(cpuNs, perPeriod)
}

// stepMillis returns each step's host time in ms: its wall time, but
// never more than the process's CPU time in it. On a shared VM a step
// the hypervisor descheduled the process in then counts only the time
// the process ran, so step_ms reads the simulator rather than its
// neighbours; on a dedicated host the two agree for one thread, and
// with several threads CPU time exceeds wall time, which then rules.
func stepMillis(s series) []float64 {
	out := make([]float64, len(s.wall))
	for i, w := range s.wall {
		if c := s.cpu[i]; c < w {
			w = c
		}
		out[i] = float64(w.Nanoseconds()) / 1e6
	}
	return out
}

func setupMedian(sps []spans, f func(spans) float64) float64 {
	var xs []float64
	for _, sp := range sps {
		xs = append(xs, f(sp))
	}
	return median(xs)
}

// p99Window is the fewest steps a p99 is taken over: ten samples lie
// beyond it.
const p99Window = 1000

// tailP99 is the median over consecutive windows of p99Window or more
// steps of each window's 99th percentile. A host hiccup that stalls a
// burst of consecutive steps then moves one window's p99, not the
// result.
func tailP99(ms []float64) float64 {
	n := len(ms) / p99Window
	if n < 1 {
		return quantile(ms, 0.99)
	}
	per := len(ms) / n
	var p99s []float64
	for i := 0; i < n; i++ {
		end := (i + 1) * per
		if i == n-1 {
			end = len(ms)
		}
		p99s = append(p99s, quantile(ms[i*per:end], 0.99))
	}
	return median(p99s)
}

// allocsPerPkt is heap allocations per packet over the digest window.
func (tm timed) allocsPerPkt() float64 {
	return ratio(float64(tm.win.allocs), float64(tm.win.to.rx-tm.win.from.rx))
}

// endToEnd builds the end-to-end metrics of an untraced run.
func endToEnd(w workload, tm timed, sps []spans) map[string]metric {
	rate, cost := throughput(tm.untraced, w.period)
	ms := stepMillis(tm.untraced)
	return map[string]metric{
		"pkts_per_s":     {rate, "1/s"},
		"step_ms_p50":    {median(ms), "ms"},
		"step_ms_p99":    {tailP99(ms), "ms"},
		"cpu_ns_per_pkt": {cost, "ns"},
		"setup_s":        {setupMedian(sps, spans.total), "s"},
		"max_rss_mb":     {maxRSSMB(), "MiB"},
	}
}
