package untimedwait_test

import (
	"testing"

	"bridge/internal/analysis"
	"bridge/internal/analysis/analysistest"
	"bridge/internal/analysis/untimedwait"
)

func TestUntimedWait(t *testing.T) {
	analysistest.Run(t, "../testdata", []*analysis.Analyzer{untimedwait.Analyzer},
		"untimedwait_flag",     // flagged (a tool's own Poll too), plus an allow directive and the _test.go exemption
		"untimedwait_clean",    // lfs.Client's Await, Start, Discard, another type's Await and Poll
		"bridge/internal/msg",  // the message layer waits on its own client
		"bridge/internal/core", // the server's client outside and inside lfscall.go, and a Poll
		"bridge/internal/lfs",  // the file that holds the rule, and the stream's, which polls
	)
}
