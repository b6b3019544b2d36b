package chaosseed

import "testing"

func TestFromEnvAndCommand(t *testing.T) {
	if seed, ok := FromEnv(t, "BRIDGE_TEST_SEED_UNSET", 7); seed != 7 || ok {
		t.Errorf("unset: %d, %v", seed, ok)
	}
	t.Setenv("BRIDGE_TEST_SEED", "32")
	if seed, ok := FromEnv(t, "BRIDGE_TEST_SEED", 7); seed != 32 || !ok {
		t.Errorf("set: %d, %v", seed, ok)
	}
	want := "BRIDGE_FAILOVER_SEED=32 go test -run 'TestFailoverMinorityLeaderCannotCommit' ."
	if got := Command("BRIDGE_FAILOVER_SEED", 32, "TestFailoverMinorityLeaderCannotCommit", "."); got != want {
		t.Errorf("Command = %q, want %q", got, want)
	}
}
