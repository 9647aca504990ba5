package experiment

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// WriteReport regenerates every registered experiment and writes a
// self-contained markdown report: one section per registry entry, in
// registry order, followed by the reproduction claims. Entries run
// concurrently under s.Parallelism, each into its own buffer, so the
// document is byte-identical at any parallelism level. This is the
// artifact a user would attach to a reproduction claim.
func WriteReport(w io.Writer, s Scale) error {
	doc := &markdown{}
	doc.printf("# IDIO reproduction report\n\n")
	if s.Quick {
		doc.printf("Reduced-scale run (256-entry rings, caches scaled 4x down). " +
			"Run without -quick for the paper-scale geometry.\n\n")
	} else {
		doc.printf("Paper-scale run: 1024-entry rings, 1 MB MLC per core, 3 MB shared LLC, " +
			"1514-byte packets unless stated otherwise.\n\n")
	}
	sections := RunCells(s.Parallelism, Registry, func(e Entry) *markdown {
		md := &markdown{}
		md.printf("## %s\n\n", e.Name)
		e.Run(s, md)
		return md
	})
	for _, md := range sections {
		doc.Write(md.Bytes())
	}

	doc.printf("## Reproduction claims\n\n")
	var claims strings.Builder
	failed := Verify(&claims)
	doc.pre(claims.String())
	if failed > 0 {
		doc.printf("**%d claims FAILED.**\n\n", failed)
	}
	_, err := w.Write(doc.Bytes())
	return err
}

// markdown is the Output behind WriteReport. Series are not embedded:
// the report carries tables and text only.
type markdown struct{ bytes.Buffer }

func (m *markdown) printf(format string, args ...any) { fmt.Fprintf(m, format, args...) }

func (m *markdown) pre(s string) { m.printf("```\n%s```\n\n", s) }

func (m *markdown) Table(title string, header []string, rows []TableRow) {
	m.printf("### %s\n\n| %s |\n", title, strings.Join(header, " | "))
	m.printf("|%s\n", strings.Repeat(" --- |", len(header)))
	for _, row := range rows {
		m.printf("| %s |\n", strings.Join(row.Row(), " | "))
	}
	m.printf("\n")
}

func (m *markdown) Text(title string, lines ...string) {
	m.printf("### %s\n\n", title)
	m.pre(strings.Join(lines, "\n") + "\n")
}

func (m *markdown) Series(string, ...Series) {}
