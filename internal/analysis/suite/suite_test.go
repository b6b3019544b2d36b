package suite_test

import (
	"testing"

	"bridge/internal/analysis/analysistest"
	"bridge/internal/analysis/suite"
)

// TestDirectiveFixture runs the full suite over the directive fixture: the
// escape hatch suppresses exactly one analyzer on exactly one line, and an
// unknown analyzer name in a directive is itself reported.
func TestDirectiveFixture(t *testing.T) {
	analysistest.Run(t, "../testdata", suite.All(), "directive")
}

func TestNames(t *testing.T) {
	want := []string{"simdeterminism", "maporder", "rawgoroutine", "lockedblock", "errcmp", "obsexport",
		"spanend", "journalorder", "syncerr", "untimedwait"}
	got := suite.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
