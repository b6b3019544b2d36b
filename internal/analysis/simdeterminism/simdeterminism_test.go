package simdeterminism_test

import (
	"testing"

	"bridge/internal/analysis"
	"bridge/internal/analysis/analysistest"
	"bridge/internal/analysis/simdeterminism"
)

func TestSimdeterminism(t *testing.T) {
	analysistest.Run(t, "../testdata", []*analysis.Analyzer{simdeterminism.Analyzer},
		"simdet_flag",                // every wall-clock and global-rand call flagged
		"simdet_clean",               // seeded sources, duration arithmetic, escape hatch
		"simdet_sim/internal/sim",    // no file of internal/sim is exempt
		"bridge/internal/msg/tcpnet", // real-transport package exemption
	)
}
