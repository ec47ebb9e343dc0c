package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunPrintsEveryRow runs the table at a small size and checks that
// every kernel row is printed under its label, in order.
func TestRunPrintsEveryRow(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 200, 1, 1); err != nil {
		t.Fatal(err)
	}
	rest := out.String()
	for _, label := range []string{
		"Table 2: maximum alignment times, split 100 of a 200-residue",
		"\nconventional ",
		"\nILP-4 (interleaved) ",
		"\nILP-4 striped ",
		"\nSWAR-4 (paper: SSE) ",
		"\nSWAR-8 (paper: SSE2) ",
		"\n\nstriped scalar ",
	} {
		i := strings.Index(rest, label)
		if i < 0 {
			t.Fatalf("row %q missing or out of order in:\n%s", label, out.String())
		}
		rest = rest[i+len(label):]
	}
}
