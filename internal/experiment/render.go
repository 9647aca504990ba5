package experiment

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Output receives an experiment's rendered results. TextOutput
// reproduces idiosim's stdout and -csv files; the markdown output
// behind WriteReport builds the -report document.
type Output interface {
	// Table renders a titled table.
	Table(title string, header []string, rows []TableRow)
	// Text renders a titled block of lines.
	Text(title string, lines ...string)
	// Series records timelines under a CSV file name.
	Series(file string, series ...Series)
}

// TextOutput renders aligned ASCII tables and text blocks to W and,
// when Dir is set, writes each series as a CSV file into Dir. The
// first error sticks and is reported by Err.
type TextOutput struct {
	W   io.Writer
	Dir string
	err error
}

func (o *TextOutput) Table(title string, header []string, rows []TableRow) {
	if o.err == nil {
		o.err = WriteTable(o.W, title, header, rows)
	}
}

func (o *TextOutput) Text(title string, lines ...string) {
	if o.err == nil {
		_, o.err = fmt.Fprintf(o.W, "== %s ==\n%s\n", title, strings.Join(lines, "\n"))
	}
}

func (o *TextOutput) Series(file string, series ...Series) {
	if o.err != nil || o.Dir == "" {
		return
	}
	var b bytes.Buffer
	WriteSeriesCSV(&b, series...) // a buffer write cannot fail
	o.err = os.WriteFile(filepath.Join(o.Dir, file), b.Bytes(), 0o666)
}

// Err returns the first error met while rendering.
func (o *TextOutput) Err() error { return o.err }

// TableRow is anything that renders itself as table cells.
type TableRow interface {
	Row() []string
}

// WriteTable renders an aligned ASCII table.
func WriteTable(w io.Writer, title string, header []string, rows []TableRow) error {
	cells := make([][]string, 0, len(rows)+1)
	cells = append(cells, header)
	for _, r := range rows {
		cells = append(cells, r.Row())
	}
	widths := make([]int, len(header))
	for _, row := range cells {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", title); err != nil {
		return err
	}
	for ri, row := range cells {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
		if ri == 0 {
			if _, err := fmt.Fprintln(w, strings.Repeat("-", totalWidth(widths))); err != nil {
				return err
			}
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func totalWidth(widths []int) int {
	t := 0
	for i, w := range widths {
		if i > 0 {
			t += 2
		}
		t += w
	}
	return t
}

// WriteSeriesCSV emits one or more timelines as CSV with a shared time
// axis (time_us, then one column per series).
func WriteSeriesCSV(w io.Writer, series ...Series) error {
	if len(series) == 0 {
		return nil
	}
	maxLen := 0
	for _, s := range series {
		if len(s.Points) > maxLen {
			maxLen = len(s.Points)
		}
	}
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, "time_us")
	for _, s := range series {
		cols = append(cols, s.Name+"_mtps")
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		row := make([]string, 0, len(series)+1)
		var ts float64
		for _, s := range series {
			if i < len(s.Points) {
				ts = s.Points[i].TimeUS
				break
			}
		}
		row = append(row, fmt.Sprintf("%.1f", ts))
		for _, s := range series {
			v := 0.0
			if i < len(s.Points) {
				v = s.Points[i].MTPS
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Rows adapts concrete row slices to []TableRow.
func Rows[T TableRow](in []T) []TableRow {
	out := make([]TableRow, len(in))
	for i, r := range in {
		out[i] = r
	}
	return out
}
