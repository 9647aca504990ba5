package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idio/internal/experiment"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string // substring of the expected error; "" = accepted
	}{
		{nil, ""},
		{[]string{"-exp", "all", "-quick", "-j", "2", "-csv", "out"}, ""},
		{[]string{"-exp", "verify"}, ""},
		{[]string{"-report", "r.md", "-quick"}, ""},
		{[]string{"-scenario", "s.json", "-stats", "s.txt", "-json", "-", "-shards", "4"}, ""},
		{[]string{"-scenario", "s.json", "-trace", "t.json", "-metrics-interval", "10us", "-metrics", "m.csv"}, ""},
		{[]string{"-scenario", "s.json", "-exp", "rpc", "-quick"}, ""},
		{[]string{"-stats", "s.txt"}, "-stats needs -scenario"},
		{[]string{"-exp", "rpc", "-json", "r.json"}, "-json needs -scenario"},
		{[]string{"-trace", "t.json"}, "-trace needs -scenario"},
		{[]string{"-metrics", "m.csv"}, "-metrics needs -scenario"},
		{[]string{"-metrics-interval", "10us"}, "-metrics-interval needs -scenario"},
		{[]string{"-shards", "0"}, "-shards needs -scenario"},
		{[]string{"-scenario", "s.json", "-exp", "fig10"}, "only with -exp rpc"},
		{[]string{"-scenario", "s.json", "-exp", "all"}, "only with -exp rpc"},
		{[]string{"-exp", "fig99"}, "fig4 fig5 fig9"},
		{[]string{"-scenario", "s.json", "-exp", "rpc", "-csv", "out"}, ""},
		{[]string{"-scenario", "s.json", "-trace", "t.json", "-trace-sample", "16"}, ""},
		{[]string{"-scenario", "s.json", "-csv", "out"}, "-csv with -scenario needs -exp rpc"},
		{[]string{"-report", "r.md", "-csv", "out"}, "-csv does not apply to -report"},
		{[]string{"-scenario", "s.json", "-trace-sample", "16"}, "-trace-sample needs -trace"},
		{[]string{"-trace-sample", "4"}, "-trace-sample needs -trace"},
		{[]string{"-report", "r.md", "-scenario", "s.json"}, "does not compose with -scenario or -exp"},
		{[]string{"-report", "r.md", "-exp", "fig10"}, "does not compose with -scenario or -exp"},
	} {
		fs := flag.NewFlagSet("idiosim", flag.ContinueOnError)
		o := bindFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: parse: %v", tc.args, err)
		}
		err := o.check(fs)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.err)
		}
	}
}

// TestRegistryParallelDeterminism runs every registered experiment at
// the quick scale serially and with two workers; stdout and every CSV
// file must match byte for byte.
func TestRegistryParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick experiment twice")
	}
	render := func(par int) ([]byte, string) {
		dir := t.TempDir()
		var out bytes.Buffer
		scale := experiment.Scale{Quick: true, Parallelism: par}
		if err := runExperiments(experiment.Registry, scale, dir, &out, io.Discard); err != nil {
			t.Fatalf("-j %d: %v", par, err)
		}
		return out.Bytes(), dir
	}
	serial, serialDir := render(1)
	fanned, fannedDir := render(2)
	if !bytes.Equal(serial, fanned) {
		t.Fatalf("-j 1 and -j 2 stdout differ:\n--- j1 ---\n%s\n--- j2 ---\n%s", serial, fanned)
	}
	files, err := os.ReadDir(serialDir)
	if err != nil || len(files) == 0 {
		t.Fatalf("no CSV files written (%v)", err)
	}
	if fannedFiles, _ := os.ReadDir(fannedDir); len(fannedFiles) != len(files) {
		t.Fatalf("-j 1 wrote %d CSV files, -j 2 wrote %d", len(files), len(fannedFiles))
	}
	for _, f := range files {
		a, _ := os.ReadFile(filepath.Join(serialDir, f.Name()))
		b, err := os.ReadFile(filepath.Join(fannedDir, f.Name()))
		if err != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs between -j 1 and -j 2 (%v)", f.Name(), err)
		}
	}
}
