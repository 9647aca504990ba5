// Command idiosim regenerates the paper's figures from the simulator.
//
// Usage:
//
//	idiosim -exp fig10                    # one experiment, table to stdout
//	idiosim -exp all -csv out/            # everything, timelines as CSV
//	idiosim -exp all -j 8                 # fan the grids out over 8 workers
//	idiosim -exp fig9 -quick              # reduced-size run (CI-friendly)
//	idiosim -exp verify                   # PASS/FAIL reproduction claims
//	idiosim -report report.md             # full markdown report
//	idiosim -scenario s.json -stats s.txt # custom JSON scenario + stats dump
//	idiosim -scenario s.json -json r.json # schema-versioned metrics JSON
//	idiosim -scenario s.json -trace t.json -trace-sample 8
//	                                      # Chrome/Perfetto packet-journey trace
//	idiosim -scenario s.json -metrics-interval 10us -metrics m.csv
//	                                      # periodic metric snapshots as CSV
//	idiosim -exp all -cpuprofile cpu.pprof -memprofile mem.pprof
//	idiosim -exp rpc                      # latency-vs-load over the fabric
//	idiosim -exp rpc -scenario scenarios/rpc_closed_loop.json
//	                                      # sweep parameterised by a topology
//
// The -exp names come from experiment.Registry (`idiosim -h` lists
// them), plus verify and all; -exp all and -report run every entry.
//
// Every experiment cell simulates an independent System, so -j only
// changes wall-clock time: the tables and CSVs are byte-identical for
// any parallelism level.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"idio/internal/experiment"
	"idio/internal/obs"
	"idio/internal/scenario"
	"idio/internal/sim"
)

// options holds the command-line flags.
type options struct {
	exp, csvDir, cpuProfile, memProfile, report string
	quick                                       bool
	par                                         int

	scenario, stats, json, trace, metrics string
	traceSample, shards                   int
	metricsInterval                       time.Duration
}

func bindFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.exp, "exp", "fig10", "experiment to run: "+strings.Join(expNames(), "|"))
	fs.StringVar(&o.csvDir, "csv", "", "directory to write timeline CSVs into (optional)")
	fs.BoolVar(&o.quick, "quick", false, "run reduced-size variants (256-entry rings, scaled caches)")
	fs.IntVar(&o.par, "j", 1, "worker-pool size for experiment grids (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.scenario, "scenario", "", "run a JSON scenario file instead of a named experiment")
	fs.StringVar(&o.stats, "stats", "", "write a flat key=value stats dump for -scenario runs")
	fs.StringVar(&o.json, "json", "", "write schema-versioned metrics JSON for -scenario runs ('-' for stdout)")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) packet journey for -scenario runs")
	fs.IntVar(&o.traceSample, "trace-sample", 1, "with -trace, follow every Nth packet")
	fs.DurationVar(&o.metricsInterval, "metrics-interval", 0, "record metric-registry snapshots at this period for -scenario runs (e.g. 10us)")
	fs.StringVar(&o.metrics, "metrics", "", "write the -metrics-interval snapshot series as CSV ('-' for stdout)")
	fs.IntVar(&o.shards, "shards", 0, "partition a -scenario topology into this many parallel event domains (0 = use the scenario's setting; output is byte-identical across shard counts)")
	fs.StringVar(&o.report, "report", "", "regenerate everything and write a markdown report to this path")
	return o
}

// expNames lists every -exp value: the registry, then verify and all.
func expNames() []string {
	var names []string
	for _, e := range experiment.Registry {
		names = append(names, e.Name)
	}
	return append(names, "verify", "all")
}

// check rejects flag combinations that would otherwise be ignored
// silently. fs must be the parsed set the options were bound to.
func (o *options) check(fs *flag.FlagSet) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if o.scenario == "" {
		for _, name := range []string{"stats", "json", "trace", "metrics", "metrics-interval", "shards"} {
			if set[name] {
				return fmt.Errorf("-%s needs -scenario", name)
			}
		}
	} else if set["exp"] && o.exp != "rpc" {
		return fmt.Errorf("-scenario composes only with -exp rpc, not -exp %s", o.exp)
	}
	if !slices.Contains(expNames(), o.exp) {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", o.exp, strings.Join(expNames(), " "))
	}
	return nil
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	if err := o.check(flag.CommandLine); err != nil {
		fatal(err)
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer writeMemProfile(o.memProfile)
	}
	if o.csvDir != "" {
		if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
			fatal(err)
		}
	}
	scale := experiment.Scale{Quick: o.quick, Parallelism: o.par}

	switch {
	case o.scenario != "" && o.exp == "rpc":
		// -exp rpc composes with -scenario: the scenario's topology
		// parameterises the sweep instead of replacing it.
		sc, err := loadScenario(o.scenario)
		if err != nil {
			fatal(err)
		}
		out := &experiment.TextOutput{W: os.Stdout, Dir: o.csvDir}
		if err := experiment.RPCScenario(scale, &sc, out); err != nil {
			fatal(err)
		}
		if err := out.Err(); err != nil {
			fatal(err)
		}
	case o.scenario != "":
		if err := runScenario(o); err != nil {
			fatal(err)
		}
	case o.report != "":
		f, err := os.Create(o.report)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := experiment.WriteReport(f, scale); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[report written to %s]\n", o.report)
	case o.exp == "verify":
		if failed := experiment.Verify(os.Stdout); failed > 0 {
			fatal(fmt.Errorf("%d reproduction claims failed", failed))
		}
	default:
		entries := experiment.Registry
		if o.exp != "all" {
			i := slices.IndexFunc(entries, func(e experiment.Entry) bool { return e.Name == o.exp })
			entries = entries[i : i+1]
		}
		if err := runExperiments(entries, scale, o.csvDir, os.Stdout, os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// runExperiments renders each entry into a private buffer so -exp all
// can fan the experiments themselves out over the pool; buffers are
// flushed to stdout in registry order, keeping it byte-identical to a
// serial run. Wall-clock times go to stderr.
func runExperiments(entries []experiment.Entry, scale experiment.Scale, csvDir string, stdout, stderr io.Writer) error {
	type result struct {
		out     bytes.Buffer
		elapsed time.Duration
		err     error
	}
	results := experiment.RunCells(scale.Parallelism, entries, func(e experiment.Entry) *result {
		res := &result{}
		start := time.Now()
		out := &experiment.TextOutput{W: &res.out, Dir: csvDir}
		e.Run(scale, out)
		res.err = out.Err()
		res.elapsed = time.Since(start)
		return res
	})
	for i, res := range results {
		if _, err := stdout.Write(res.out.Bytes()); err != nil {
			return err
		}
		if res.err != nil {
			return res.err
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", entries[i].Name, res.elapsed.Round(time.Millisecond))
	}
	return nil
}

// loadScenario parses and validates a scenario file.
func loadScenario(path string) (scenario.Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return scenario.Scenario{}, err
	}
	defer f.Close()
	return scenario.Load(f)
}

// runScenario executes a JSON scenario file and prints its summary,
// optionally writing a flat stats dump, a metrics JSON document, a
// Chrome trace, and a metric-snapshot CSV series.
func runScenario(o *options) error {
	sc, err := loadScenario(o.scenario)
	if err != nil {
		return err
	}
	var ropts scenario.RunOpts
	if o.trace != "" {
		if o.traceSample <= 0 {
			return fmt.Errorf("-trace-sample must be positive, got %d", o.traceSample)
		}
		tf, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		ropts.TraceSampleN = o.traceSample
		ropts.TraceSink = obs.NewChromeSink(tf)
	}
	if o.metricsInterval > 0 {
		ropts.MetricsInterval = sim.Duration(o.metricsInterval.Nanoseconds()) * sim.Nanosecond
	} else if o.metrics != "" {
		return fmt.Errorf("-metrics needs -metrics-interval > 0")
	}
	if o.shards > 0 {
		if sc.Topology == nil {
			return fmt.Errorf("-shards needs a scenario with a topology section")
		}
		ropts.Shards = o.shards
	}
	sys, res, cpi, err := scenario.RunSystemOpts(sc, ropts)
	if err != nil {
		return err
	}
	if ropts.TraceSink != nil {
		if err := sys.Observe().CloseSink(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%d trace events written to %s]\n",
			sys.Observe().EventsEmitted(), o.trace)
	}
	fmt.Printf("== scenario %q (%s) ==\n", sc.Name, sc.Policy)
	fmt.Print(res)
	if cpi > 0 {
		fmt.Printf("  antagonist CPI: %.1f\n", cpi)
	}
	if o.stats != "" {
		sf, err := os.Create(o.stats)
		if err != nil {
			return err
		}
		defer sf.Close()
		if err := res.WriteStats(sf); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[stats written to %s]\n", o.stats)
	}
	if o.json != "" {
		if err := writeTo(o.json, res.WriteJSON); err != nil {
			return err
		}
	}
	if o.metrics != "" {
		if err := writeTo(o.metrics, res.MetricSeries.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

// writeTo runs emit against the named file, or stdout for "-".
func writeTo(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[written to %s]\n", path)
	return nil
}

// writeMemProfile snapshots the heap after a full GC so -memprofile
// reflects live steady-state allocations, not transient garbage.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idiosim:", err)
	os.Exit(1)
}
