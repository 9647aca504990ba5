package idio_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"idio/internal/scenario"
)

// updateGolden rewrites testdata/golden from the current tree instead
// of comparing against it:
//
//	go test -run TestGolden -update .
//
// A regenerated corpus then shows up as a reviewable diff.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current tree")

// goldenScenario is one scenarios/*.json file; those with a topology
// section are also run partitioned into four event domains, whose
// output must equal the single-domain run byte for byte.
type goldenScenario struct {
	name    string
	sharded bool
}

// goldenScenarios loads every scenarios/*.json file, so a new
// scenario cannot go unpinned.
func goldenScenarios(t *testing.T) []goldenScenario {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios found (%v)", err)
	}
	var out []goldenScenario
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		out = append(out, goldenScenario{name, sc.Topology != nil})
	}
	return out
}

// TestGolden pins every user-visible model output to the committed
// corpus under testdata/golden: the `-exp all -quick` tables, each
// scenario's single-domain summary and -stats dump, and mixed_nfs's
// -json document. Scenarios with a topology also run on four shards,
// whose summary and dump must equal the single-domain run's. Wall-clock
// lines go to stderr and are not compared.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus runs the full quick figure set")
	}
	bin := filepath.Join(t.TempDir(), "idiosim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/idiosim").CombinedOutput(); err != nil {
		t.Fatalf("build idiosim: %v\n%s", err, out)
	}
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, got []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden corpus:\n%s", name, firstDiff(want, got))
		}
	}
	run := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("idiosim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}

	check("all_quick.txt", run("-exp", "all", "-quick", "-j", "2"))
	tmp := t.TempDir()
	scenarioRun := func(name string, extra ...string) (out, stats []byte) {
		t.Helper()
		path := filepath.Join(tmp, name+".stats")
		out = run(append([]string{"-scenario", filepath.Join("scenarios", name+".json"), "-stats", path}, extra...)...)
		stats, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	for _, sc := range goldenScenarios(t) {
		if !sc.sharded {
			out, stats := scenarioRun(sc.name)
			check(sc.name+".shards1.out", out)
			check(sc.name+".shards1.stats", stats)
			continue
		}
		out, stats := scenarioRun(sc.name, "-shards", "1")
		check(sc.name+".shards1.out", out)
		check(sc.name+".shards1.stats", stats)
		// The sharded run is held to the single-domain bytes directly,
		// never to a copy of its own, so -update cannot pin a
		// divergence between the two.
		out4, stats4 := scenarioRun(sc.name, "-shards", "4")
		if !bytes.Equal(out4, out) {
			t.Errorf("%s: -shards 4 stdout differs from the single-domain run:\n%s", sc.name, firstDiff(out, out4))
		}
		if !bytes.Equal(stats4, stats) {
			t.Errorf("%s: -shards 4 -stats differs from the single-domain run:\n%s", sc.name, firstDiff(stats, stats4))
		}
	}
	check("mixed_nfs.shards1.json", run("-scenario", filepath.Join("scenarios", "mixed_nfs.json"), "-json", "-"))
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(length differs)"
}
