package untimedwait_test

import (
	"testing"

	"bridge/internal/analysis"
	"bridge/internal/analysis/analysistest"
	"bridge/internal/analysis/protocolshape"
	"bridge/internal/analysis/untimedwait"
)

func TestUntimedWait(t *testing.T) {
	analysistest.Run(t, "../testdata", []*analysis.Analyzer{untimedwait.Analyzer},
		"untimedwait_flag",     // flagged, plus an allow directive and the _test.go exemption
		"untimedwait_clean",    // lfs.Client's Await, Start, Discard, another type's Await
		"bridge/internal/msg",  // the message layer waits on its own client
		"bridge/internal/core", // the server's client outside and inside lfscall.go
	)
	// So does the file that holds the rule. The lfs fixture is protocolshape's
	// too, and its wants are protocolshape's findings.
	analysistest.Run(t, "../testdata", []*analysis.Analyzer{untimedwait.Analyzer, protocolshape.Analyzer},
		"bridge/internal/lfs")
}
