// Command benchjson converts `go test -bench` output into a JSON
// document keyed by benchmark name. Repeated runs of the same
// benchmark (-count N) are averaged, the -GOMAXPROCS suffix is
// stripped, and every reported metric — ns/op, B/op, allocs/op and
// custom b.ReportMetric units — becomes a field:
//
//	go test -bench . -benchmem -count 3 ./internal/sim | benchjson -o BENCH_sim.json
//
// Output shape:
//
//	{"BenchmarkSchedule": {"iterations": 12345678, "ns/op": 93.1,
//	                       "B/op": 0, "allocs/op": 0}, ...}
//
// Lines that are not benchmark results (pkg headers, PASS/ok, test
// logs) are ignored, so the raw `go test` stream can be piped in
// unfiltered.
//
// Two side modes support the perf-regression workflow:
//
//	-baseline old.json   compare against a committed baseline and print
//	                     a WARNING for every benchmark whose per-unit
//	                     metric (ns/pkt, else ns/req, else ns/op)
//	                     regressed by more than 10%
//	-history hist.jsonl  append this run's condensed results as one
//	                     JSON line (with -label, a UTC timestamp and a
//	                     host fingerprint: CPU model, CPU count,
//	                     GOMAXPROCS and Go version), building a per-PR
//	                     performance ledger whose wall-clock numbers
//	                     say which machine they came from
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline JSON: warn on >10% ns/pkt (else ns/req, else ns/op) regressions")
	history := flag.String("history", "", "JSONL ledger to append this run's results to")
	label := flag.String("label", "", "label stored with the -history entry (e.g. git commit)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	results, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "[%d benchmarks written to %s]\n", len(results), *out)
	}
	if *baseline != "" {
		if err := compare(results, *baseline); err != nil {
			fatal(err)
		}
	}
	if *history != "" {
		if err := appendHistory(*history, *label, currentHost(), results); err != nil {
			fatal(err)
		}
	}
}

// compare warns (stderr, exit 0) about benchmarks whose per-unit
// latency metric regressed >10% against the baseline file. The
// comparison is advisory by design: wall-clock benchmarks on shared
// machines are too noisy for a hard gate, but a loud warning in the
// pre-merge check output is hard to miss.
func compare(results map[string]map[string]float64, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base map[string]map[string]float64
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	warnings := regressions(base, results)
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "benchjson: WARNING: %s vs %s\n", w, path)
	}
	if len(warnings) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no >10%% regressions vs %s\n", path)
	}
	return nil
}

// regressions lists, in name order, every benchmark whose per-unit
// metric — ns/pkt, else ns/req, else ns/op, the first that both runs
// report — is more than 10% above the baseline. ns/op comes last
// because at a few iterations (-benchtime=3x) it is dominated by the
// fixed per-run setup, not the work per packet or request.
func regressions(base, results map[string]map[string]float64) []string {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		old, ok := base[name]
		if !ok {
			continue
		}
		for _, metric := range []string{"ns/pkt", "ns/req", "ns/op"} {
			ov, a := old[metric]
			nv, b := results[name][metric]
			if !a || !b {
				continue
			}
			if ov > 0 && nv > ov*1.10 {
				out = append(out, fmt.Sprintf("%s %s regressed %+.1f%% (%.4g -> %.4g)",
					name, metric, 100*(nv/ov-1), ov, nv))
			}
			break
		}
	}
	return out
}

// hostInfo fingerprints the machine a ledger entry was measured on.
// Wall-clock results are comparable only between entries whose hosts
// match. GOMAXPROCS and the Go version are this process's, which
// bench.sh runs in the same environment and toolchain as the
// benchmarks.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func currentHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		if m := cpuModel(f); m != "" {
			h.CPU = m
		}
	}
	return h
}

// cpuModel returns the first "model name" value of a /proc/cpuinfo
// listing, or "" when there is none.
func cpuModel(r io.Reader) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// appendHistory appends one compact JSON line {label, utc, host,
// results} to the ledger so successive PRs accumulate a queryable perf
// timeline.
func appendHistory(path, label string, host hostInfo, results map[string]map[string]float64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	entry := struct {
		Label   string                        `json:"label"`
		UTC     string                        `json:"utc"`
		Host    hostInfo                      `json:"host"`
		Results map[string]map[string]float64 `json:"results"`
	}{label, time.Now().UTC().Format(time.RFC3339), host, results}
	enc := json.NewEncoder(f)
	return enc.Encode(entry)
}

// parse accumulates per-benchmark metric sums and averages them, so a
// -count N stream collapses to one entry per benchmark.
func parse(r io.Reader) (map[string]map[string]float64, error) {
	sums := map[string]map[string]float64{}
	counts := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// A result line is "BenchmarkName-N  iters  value unit  value unit ...".
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := sums[name]
		if m == nil {
			m = map[string]float64{}
			sums[name] = m
		}
		m["iterations"] += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value on line %q", sc.Text())
			}
			m[fields[i+1]] += v
		}
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := float64(counts[name])
		for k := range sums[name] {
			sums[name][k] /= n
		}
	}
	return sums, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
