package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"idio/internal/sim.(*Simulator).RunUntil":       "sim",
		"idio/internal/sim.(*TimerWheel).tick":          "sim",
		"idio/internal/cache.(*Cache).find":             "cache",
		"idio/internal/hier.(*directory).owner":         "hier",
		"idio/internal/dram.(*DRAM).Access":             "dram",
		"idio/internal/nic.(*NIC).Receive":              "nic",
		"idio/internal/pcie.EncodeDW0":                  "pcie",
		"idio/internal/core.(*Prefetcher).Hint":         "core",
		"idio/internal/cpu.(*Core).poll":                "cpu",
		"idio/internal/apps.TouchDrop.Process":          "apps",
		"idio/internal/net.(*Switch).Receive":           "net",
		"idio/internal/flow.(*Table[...]).Put":          "flow",
		"idio/internal/pkt.echoInto":                    "pkt",
		"idio/internal/stats.(*LatencyDist).Percentile": "stats",
		"idio/internal/obs.(*Registry).Snapshot":        "obs",
		"idio/internal/traffic.emitBurstPkt":            "traffic",
		"idio.(*rootComplex).DMAWrite":                  "idio",
		"idio.(*Cluster).Collect.func1":                 "idio",
		"idio/internal/qos.(*Map).Class":                "other",
		"runtime.mallocgc":                              "runtime",
		"runtime/internal/atomic.Load":                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":  "runtime",
		"sync.(*Mutex).Lock":                            "runtime",
		"gcWriteBarrier":                                "runtime",
		"sort.partition_func":                           "other",
		"math/rand.(*Rand).ExpFloat64":                  "other",
		"main.(*stepper).step":                          "other",
		"":                                              "runtime",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in this package, so a profile attributes it to
// "other".
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	st, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples == 0 {
		t.Fatal("profile has no samples")
	}
	var sum float64
	for _, m := range modules {
		sum += st.Share(m)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("module shares sum to %v, want 1", sum)
	}
	if st.Share("other") < 0.5 {
		t.Errorf("spin loop in package main folded to other with share %v, want most samples", st.Share("other"))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); math.Abs(got-4.96) > 1e-9 {
		t.Errorf("p99 = %v, want 4.96", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestTailP99(t *testing.T) {
	ms := make([]float64, 3*p99Window)
	for i := range ms {
		ms[i] = 1
	}
	for i := 0; i < 5; i++ {
		ms[100*i] = 2 // one slow step in a hundred, spread evenly
	}
	for i := p99Window; i < p99Window+50; i++ {
		ms[i] = 10 // a stall of consecutive steps inside the second window
	}
	if got := tailP99(ms); got != 1 {
		t.Errorf("tailP99 = %v, want 1: one stalled window must not set it", got)
	}
	if got := tailP99(ms[1:11]); got != 1 {
		t.Errorf("tailP99 of a short run = %v, want its plain p99 1", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkMetrics verifies that a run reported exactly the listed
// metrics, each with its listed unit and a finite value.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("metric %s = %v", m.Name, g.Value)
		}
	}
	var extra []string
	for n := range got {
		if !names[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
}

// TestShortRuns runs every workload for its minimum number of timed
// steps, untraced and traced, and requires every correctness check to
// pass, the metrics to match BENCHMARK.json, and the sharded fabric to
// reproduce the unsharded one's digest.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	digests := map[string]string{}
	for _, bw := range bf.Workloads {
		w, ok := lookupWorkload(bw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", bw.Name)
			continue
		}
		w.setups = 2
		for _, trace := range []bool{false, true} {
			rep, err := runBenchmark(options{w: w, seed: 11, seconds: 1e-3, trace: trace})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if rep.checks.failed != 0 || rep.checks.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d checks failed: %v",
					w.name, trace, rep.checks.failed, rep.checks.attempted, rep.checks.failures)
			}
			if trace {
				checkMetrics(t, rep.metrics, bf.PerLayer)
				var sum float64
				for _, m := range modules {
					sum += rep.metrics["self."+m].Value
				}
				if math.Abs(sum-1) > 1e-9 && rep.metrics["self.samples"].Value > 0 {
					t.Errorf("%s: self shares sum to %v", w.name, sum)
				}
			} else {
				checkMetrics(t, rep.metrics, bf.EndToEnd)
			}
			if d, ok := digests[w.name]; ok && d != rep.digest {
				t.Errorf("%s: digest %s traced, %s untraced", w.name, rep.digest, d)
			}
			digests[w.name] = rep.digest
		}
	}
	if digests["fabric_sharded"] != digests["fabric_rpc"] {
		t.Errorf("fabric_sharded digest %s != fabric_rpc %s", digests["fabric_sharded"], digests["fabric_rpc"])
	}
}

// TestBadArguments requires a missing or unknown workload and a bad
// flag value to fail without printing a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "host_burst", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a failure and no output", args, code, out.String())
		}
	}
}
