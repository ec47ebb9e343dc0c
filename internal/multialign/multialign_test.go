package multialign

import (
	"repro/internal/align"
	"repro/internal/scoring"
)

var protein = align.Params{Exch: scoring.BLOSUM62, Gap: scoring.DefaultProteinGap}

func equalRows(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
