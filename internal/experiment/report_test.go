package experiment

import (
	"strings"
	"testing"
)

func TestWriteReportQuick(t *testing.T) {
	var buf strings.Builder
	if err := WriteReport(&buf, Scale{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := []string{
		"# IDIO reproduction report",
		"\n## Reproduction claims\n",
		"| rate | policy |", // a table header made it through
		"PASS",
	}
	for _, e := range Registry {
		want = append(want, "\n## "+e.Name+"\n")
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("report missing %q", w)
		}
	}
	if strings.Contains(out, "FAILED") {
		t.Fatal("report contains failed claims")
	}
	// Markdown tables are well-formed: every table line has as many
	// pipes as its header line.
	lines := strings.Split(out, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "|") {
			continue
		}
		want := strings.Count(lines[i], "|")
		for i++; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
			if strings.Count(lines[i], "|") != want {
				t.Fatalf("ragged table row %q", lines[i])
			}
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 100 {
		return 0, strings.NewReader("").UnreadByte() // any non-nil error
	}
	return len(p), nil
}

func TestWriteReportPropagatesWriteErrors(t *testing.T) {
	if err := WriteReport(&failWriter{}, Scale{Quick: true}); err == nil {
		t.Fatal("write errors must propagate")
	}
}
