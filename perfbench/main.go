// Command perfbench is the repository's benchmark: it runs one named
// simulator workload at a given seed, checks that the simulation's
// outputs are correct, and prints host-time end-to-end metrics (or,
// with --trace 1, a per-layer breakdown) as one JSON line.
//
//	go run . --workload host_burst --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs the benchmark and prints its
// report; the last line of stdout is the JSON result. It returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "run length: the timed step count is this times the workload's steps per second")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rep, err := runBenchmark(options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range rep.checks.failures {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable report followed by the JSON result
// line.
func (r *report) print(out io.Writer) error {
	fp := r.host
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%t\n", r.workload, r.seed, r.trace)
	fmt.Fprintf(out, "host cpu=%q nproc=%d gomaxprocs=%d go=%s\n", fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion)
	fmt.Fprintf(out, "sim_digest %s\n", r.digest)
	fmt.Fprintf(out, "timed steps=%d setups=%d pkts=%d\n", r.steps, r.setups, r.pkts)
	fmt.Fprintf(out, "fail_frac %g (%d of %d checks failed)\n",
		ratio(float64(r.checks.failed), float64(r.checks.attempted)), r.checks.failed, r.checks.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-32s %.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   r.checks.failed == 0,
		Attempted: r.checks.attempted,
		Failed:    r.checks.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// checker counts correctness checks and keeps the first failures.
type checker struct {
	attempted, failed int
	failures          []string
}

// maxFailures bounds how many failure messages a run keeps.
const maxFailures = 20

// noError records a check that err is nil. Unlike expect it boxes no
// arguments, so checking every step allocates nothing.
func (c *checker) noError(name string, err error) {
	if err == nil {
		c.attempted++
		return
	}
	c.expect(name, false, "%v", err)
}

// expect records one check; on failure the formatted detail is kept.
func (c *checker) expect(name string, ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, name+": "+fmt.Sprintf(format, args...))
	}
}
