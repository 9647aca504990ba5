package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseAveragesAndStripsSuffix(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: idio/internal/sim
BenchmarkSchedule-8   	12000000	        90.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedule-8   	12000000	       110.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig9         	       2	 500000000 ns/op	        12.5 mlcWBreduction%@100G
PASS
ok  	idio/internal/sim	1.234s
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	sched, ok := got["BenchmarkSchedule"]
	if !ok {
		t.Fatalf("missing BenchmarkSchedule (suffix not stripped?): %v", got)
	}
	if math.Abs(sched["ns/op"]-100.0) > 1e-9 {
		t.Fatalf("ns/op not averaged: got %v, want 100", sched["ns/op"])
	}
	if sched["allocs/op"] != 0 {
		t.Fatalf("allocs/op = %v, want 0", sched["allocs/op"])
	}
	fig9 := got["BenchmarkFig9"]
	if fig9 == nil || fig9["mlcWBreduction%@100G"] != 12.5 {
		t.Fatalf("custom metric not captured: %v", fig9)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	got, err := parse(strings.NewReader("hello\nBenchmarkOdd 3 fields\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected no results, got %v", got)
	}
}

// The gate compares the per-unit metric: a few-iteration run whose
// ns/op is swamped by setup but whose ns/req is flat must not warn,
// while a real ns/req or ns/pkt regression must.
func TestRegressionsPerUnitMetric(t *testing.T) {
	base := map[string]map[string]float64{
		"BenchmarkMillionFlowSteadyState": {"ns/op": 2.2e4, "ns/req": 19800},
		"BenchmarkPacketLifecycle":        {"ns/op": 1e6, "ns/pkt": 10300},
		"BenchmarkPlain":                  {"ns/op": 100},
	}
	flat := map[string]map[string]float64{
		"BenchmarkMillionFlowSteadyState": {"ns/op": 1.8e6, "ns/req": 20100},
		"BenchmarkPacketLifecycle":        {"ns/op": 9e6, "ns/pkt": 10500},
		"BenchmarkPlain":                  {"ns/op": 105},
	}
	if got := regressions(base, flat); len(got) != 0 {
		t.Fatalf("flat per-unit metrics warned: %q", got)
	}
	slow := map[string]map[string]float64{
		"BenchmarkMillionFlowSteadyState": {"ns/op": 2.2e4, "ns/req": 25000},
		"BenchmarkPacketLifecycle":        {"ns/op": 1e6, "ns/pkt": 12000},
		"BenchmarkPlain":                  {"ns/op": 120},
	}
	got := regressions(base, slow)
	want := []string{"BenchmarkMillionFlowSteadyState ns/req", "BenchmarkPacketLifecycle ns/pkt", "BenchmarkPlain ns/op"}
	if len(got) != len(want) {
		t.Fatalf("warnings %q, want one each for %q", got, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w+" regressed") {
			t.Errorf("warning %d = %q, want prefix %q", i, got[i], w)
		}
	}
}

func TestCPUModel(t *testing.T) {
	in := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n\nprocessor\t: 1\nmodel name\t: other\n"
	if got := cpuModel(strings.NewReader(in)); got != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("cpuModel = %q", got)
	}
	if got := cpuModel(strings.NewReader("processor\t: 0\n")); got != "" {
		t.Fatalf("cpuModel without a model line = %q, want empty", got)
	}
}

// Every ledger line carries the host fingerprint, and appending leaves
// the lines already in the ledger untouched.
func TestAppendHistoryRecordsHost(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	old := `{"label":"old","utc":"2026-01-01T00:00:00Z","results":{}}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	host := hostInfo{CPU: "cpu", NumCPU: 2, GOMAXPROCS: 2, Go: "go1.x"}
	res := map[string]map[string]float64{"BenchmarkX": {"ns/op": 1}}
	if err := appendHistory(path, "pr1-abc", host, res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), old) {
		t.Fatalf("existing ledger line changed:\n%s", raw)
	}
	sc := bufio.NewScanner(strings.NewReader(string(raw[len(old):])))
	if !sc.Scan() {
		t.Fatal("no line appended")
	}
	var entry struct {
		Label string
		Host  hostInfo
	}
	if err := json.Unmarshal(sc.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Label != "pr1-abc" || entry.Host != host {
		t.Fatalf("appended entry %+v", entry)
	}
	if h := currentHost(); h.NumCPU < 1 || h.GOMAXPROCS < 1 || h.Go == "" || h.CPU == "" {
		t.Fatalf("currentHost = %+v", h)
	}
}
