package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunEquivalenceClaims runs the claims at a small size and checks
// that every equivalence claim (the S4.x lines and the old algorithm)
// reports identical output. The quantitative bands are not asserted:
// they are calibrated for the default length.
func TestRunEquivalenceClaims(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(&out, 160, 6, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"S4.1 group mode (4 lanes) equivalence",
		"S4.1 striped kernel equivalence",
		"S4.2 shared-memory strict equivalence",
		"S4.3 cluster strict equivalence",
		"old algorithm produces identical output",
	} {
		line := lineWith(out.String(), name)
		if line == "" {
			t.Errorf("claim %q not printed in:\n%s", name, out.String())
			continue
		}
		if !strings.Contains(line, "[ok  ]") || !strings.Contains(line, " identical ") {
			t.Errorf("claim %q does not hold: %s", name, line)
		}
	}
}

func lineWith(text, sub string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, sub) {
			return line
		}
	}
	return ""
}
