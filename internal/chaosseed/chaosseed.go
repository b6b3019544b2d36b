// Package chaosseed is how the env-seeded chaos suites (BRIDGE_CHAOS_SEED,
// BRIDGE_CRASH_SEED, BRIDGE_FAILOVER_SEED, BRIDGE_WB_SEED, BRIDGE_MSG_SEED)
// pick their seed, and how a run that fails says what repeats it.
package chaosseed

import (
	"os"
	"strconv"
	"testing"
)

// FromEnv returns the seed the environment variable names, or def when it is
// unset; ok says which. A value that is not a number fails the test.
func FromEnv(t testing.TB, env string, def int64) (seed int64, ok bool) {
	t.Helper()
	v := os.Getenv(env)
	if v == "" {
		return def, false
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("%s = %q: %v", env, v, err)
	}
	return seed, true
}

// Repro makes t, if it fails, end its log with the one command that runs it
// again under the same seed; pkg is the test's package as go test takes it.
func Repro(t testing.TB, env string, seed int64, pkg string) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("reproduce with: %s", Command(env, seed, t.Name(), pkg))
		}
	})
}

// Command is the line Repro prints.
func Command(env string, seed int64, test, pkg string) string {
	return env + "=" + strconv.FormatInt(seed, 10) + " go test -run '" + test + "' " + pkg
}
