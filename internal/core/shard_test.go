package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"bridge/internal/sim"
)

// shardCfg is fastCfg with shards replicated shard groups of 3 members
// each — the composed Servers × Replicas topology.
func shardCfg(p, shards int) ClusterConfig {
	cfg := fastCfg(p)
	cfg.Servers = shards
	cfg.Replicas = 3
	return cfg
}

// awaitShardLeader spins virtual time until the given shard group has a
// ready leader.
func awaitShardLeader(t *testing.T, p sim.Proc, cl *Cluster, shard int) int {
	t.Helper()
	deadline := p.Now() + 5*time.Second
	for p.Now() < deadline {
		if i := cl.LeaderServer(shard); i >= 0 {
			return i
		}
		p.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("shard %d: no leader elected within 5s of virtual time", shard)
	return -1
}

// TestNameShardStable pins the name→shard hash: FNV-1a reduced modulo the
// group count. Client routing, fault schedules, and external tooling all
// agree on these values, so a change here is a namespace reshuffle —
// every deployment's files would land on different groups.
func TestNameShardStable(t *testing.T) {
	pins := []struct {
		name   string
		shards int
		want   int
	}{
		{"", 4, 1}, // FNV offset basis 2166136261 % 4
		{"f", 4, 1},
		{"g", 4, 2},
		{"h", 4, 3},
		{"alpha", 4, 3},
		{"bravo", 4, 3},
		{"charlie", 4, 1},
		{"f", 2, 1},
		{"g", 2, 0},
		{"file-0", 8, 6},
		{"file-1", 8, 1},
		{"anything", 1, 0},
		{"anything", 0, 0},
	}
	for _, pin := range pins {
		if got := NameShard(pin.name, pin.shards); got != pin.want {
			t.Errorf("NameShard(%q, %d) = %d, want %d", pin.name, pin.shards, got, pin.want)
		}
	}
	// The hash is a pure function: repeated calls never drift.
	for i := 0; i < 100; i++ {
		if NameShard("stability", 4) != NameShard("stability", 4) {
			t.Fatalf("NameShard not deterministic")
		}
	}
}

// sameShardName finds a name on the same shard as base; crossShardName
// finds one on a different shard. Both search a deterministic candidate
// space so tests stay replayable.
func sameShardName(base string, shards int) string {
	want := NameShard(base, shards)
	for i := 0; ; i++ {
		cand := fmt.Sprintf("%s-renamed-%d", base, i)
		if NameShard(cand, shards) == want {
			return cand
		}
	}
}

func crossShardName(base string, shards int) string {
	want := NameShard(base, shards)
	for i := 0; ; i++ {
		cand := fmt.Sprintf("%s-crossed-%d", base, i)
		if NameShard(cand, shards) != want {
			return cand
		}
	}
}

// TestShardedBasicOps drives the metadata protocol through two replicated
// shard groups: files land on their hash-owner group, List aggregates
// across groups, and every group's replicas converge on their own log.
func TestShardedBasicOps(t *testing.T) {
	const shards = 2
	withCluster(t, shardCfg(4, shards), func(p sim.Proc, cl *Cluster, c *Client) {
		if got := cl.NumShards(); got != shards {
			t.Fatalf("NumShards = %d, want %d", got, shards)
		}
		if got := cl.GroupSize(); got != 3 {
			t.Fatalf("GroupSize = %d, want 3", got)
		}
		// Create enough files that both shards own some.
		const n = 8
		perShard := make([]int, shards)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("file-%d", i)
			perShard[NameShard(name, shards)]++
			if _, err := c.Create(name); err != nil {
				t.Fatalf("Create(%s): %v", name, err)
			}
			if err := c.SeqWrite(name, payload(i)); err != nil {
				t.Fatalf("SeqWrite(%s): %v", name, err)
			}
		}
		for g := 0; g < shards; g++ {
			if perShard[g] == 0 {
				t.Fatalf("shard %d owns no files — workload does not exercise sharding", g)
			}
		}
		// Every file reads back through its owner shard's leader.
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("file-%d", i)
			b, err := c.ReadAt(name, 0)
			if err != nil || !bytes.Equal(b, payload(i)) {
				t.Fatalf("ReadAt(%s): %v", name, err)
			}
		}
		// List aggregates all shards' partitions, sorted.
		names, err := c.List()
		if err != nil || len(names) != n {
			t.Fatalf("List = %v, %v; want %d names", names, err, n)
		}
		// Each group committed entries on its own independent log.
		p.Sleep(300 * time.Millisecond)
		for g := 0; g < shards; g++ {
			lead := awaitShardLeader(t, p, cl, g)
			want := cl.Servers[g*3+lead].RaftStatus().Commit
			if want == 0 {
				t.Errorf("shard %d committed nothing", g)
			}
			for j := 0; j < 3; j++ {
				if got := cl.Servers[g*3+j].RaftStatus().Commit; got != want {
					t.Errorf("shard %d replica %d commit = %d, leader has %d", g, j, got, want)
				}
			}
		}
	})
}

// TestShardedCrossShardRename pins the cross-shard rename contract: a
// rename whose names hash to different groups fails client-side with
// ErrCrossShard, and a same-shard rename succeeds.
func TestShardedCrossShardRename(t *testing.T) {
	const shards = 2
	withCluster(t, shardCfg(4, shards), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		bad := crossShardName("f", shards)
		if _, err := c.Rename("f", bad); !errors.Is(err, ErrCrossShard) {
			t.Fatalf("cross-shard rename = %v, want ErrCrossShard", err)
		}
		// The reject is client-side and free of side effects: the file is
		// untouched and the target name stays free.
		if _, err := c.Stat("f"); err != nil {
			t.Fatalf("Stat(f) after rejected rename: %v", err)
		}
		if _, err := c.Stat(bad); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Stat(%s) = %v, want ErrNotFound", bad, err)
		}
		good := sameShardName("f", shards)
		if m, err := c.Rename("f", good); err != nil || m.Name != good {
			t.Fatalf("same-shard rename = %+v, %v", m, err)
		}
	})
}

// TestErrCrossShardRoundTrip pins transport encoding: the sentinel has a
// code that rebuilds the typed error, as every server reply error must.
func TestErrCrossShardRoundTrip(t *testing.T) {
	wire := statusFor(fmt.Errorf("%w: %q (shard 1) -> %q (shard 0)", ErrCrossShard, "a", "b"))
	if err := statusErr(wire); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("statusErr(code %d, %q) = %v, want ErrCrossShard", wire.Code(), wire.Detail(), err)
	}
}

// TestShardedUnreplicatedRename checks the degenerate topology (size-1
// groups): hash-partitioned unreplicated servers enforce the same
// cross-shard rule with the same sentinel.
func TestShardedUnreplicatedRename(t *testing.T) {
	cfg := fastCfg(4)
	cfg.Servers = 2
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		bad := crossShardName("f", 2)
		if _, err := c.Rename("f", bad); !errors.Is(err, ErrCrossShard) {
			t.Fatalf("cross-partition rename = %v, want ErrCrossShard", err)
		}
	})
}

// TestShardedLeaderKillIsolation kills shard 0's leader and drives
// traffic to shard 1 throughout: the victim group pays a bounded
// failover, the other group's operations proceed with no election in
// their path, and dedup holds across the victim's failover.
func TestShardedLeaderKillIsolation(t *testing.T) {
	const shards = 2
	withCluster(t, shardCfg(4, shards), func(p sim.Proc, cl *Cluster, c *Client) {
		// One warm file per shard.
		f0 := pickNameOnShard(t, "warm", 0, shards)
		f1 := pickNameOnShard(t, "warm", 1, shards)
		for _, name := range []string{f0, f1} {
			if _, err := c.Create(name); err != nil {
				t.Fatalf("Create(%s): %v", name, err)
			}
			if err := c.SeqWrite(name, payload(0)); err != nil {
				t.Fatalf("SeqWrite(%s): %v", name, err)
			}
		}
		lead0 := awaitShardLeader(t, p, cl, 0)
		cl.CrashServer(0, lead0, p.Now())
		// Shard 1 is unaffected: its ops complete at the no-fault pace —
		// well under shard 0's election window — because nothing routes
		// through the dead group.
		start := p.Now()
		const quiet = 24
		for i := 0; i < quiet; i++ {
			if err := c.SeqWrite(f1, payload(i)); err != nil {
				t.Fatalf("SeqWrite(%s) during shard-0 failover: %v", f1, err)
			}
		}
		if took := p.Now() - start; took > 500*time.Millisecond {
			t.Errorf("shard-1 writes stalled %v during shard-0 failover; want well under the election window", took)
		}
		// The victim shard recovers behind redirects: the same client call
		// absorbs the timeout, the election, and takeover replay.
		if err := c.SeqWrite(f0, payload(1)); err != nil {
			t.Fatalf("SeqWrite(%s) after shard-0 leader kill: %v", f0, err)
		}
		newLead := awaitShardLeader(t, p, cl, 0)
		if newLead == lead0 {
			t.Fatalf("shard 0 leader %d still leading after crash", lead0)
		}
		// Dedup across the victim shard's failover: retransmitting the
		// last committed write to the new leader must answer from the
		// replicated op table, not append again.
		body := SeqWriteReq{OpID: c.nextOp, Name: f0, Data: payload(1)}
		m, err := c.callAt(cl.Servers[0*3+newLead].Addr(), body)
		if err != nil {
			t.Fatalf("retransmit: %v", err)
		}
		if resp := m.Body.(SeqWriteResp); !resp.OK() {
			t.Fatalf("retransmit answered %q", resp.Detail())
		}
		if meta, err := c.Stat(f0); err != nil || meta.Blocks != 2 {
			t.Fatalf("Stat(%s) = %+v, %v; want 2 blocks (dedup failed)", f0, meta, err)
		}
		// The revived replica rejoins its own group only.
		cl.RestartServer(0, lead0)
		if err := c.SeqWrite(f0, payload(2)); err != nil {
			t.Fatalf("SeqWrite after restart: %v", err)
		}
		p.Sleep(time.Second)
		want := cl.Servers[0*3+newLead].RaftStatus().Commit
		if got := cl.Servers[0*3+lead0].RaftStatus().Commit; got != want {
			t.Errorf("revived shard-0 replica commit = %d, leader has %d", got, want)
		}
	})
}

// pickNameOnShard returns a deterministic name hashing to the wanted
// shard.
func pickNameOnShard(t *testing.T, prefix string, shard, shards int) string {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		cand := fmt.Sprintf("%s-%d", prefix, i)
		if NameShard(cand, shards) == shard {
			return cand
		}
	}
	t.Fatalf("no name with prefix %q on shard %d/%d", prefix, shard, shards)
	return ""
}

// TestShardedBadTopology pins configuration validation: negative shard or
// replica counts fail with ErrBadArg.
func TestShardedBadTopology(t *testing.T) {
	rt := sim.NewVirtual()
	if _, err := StartCluster(rt, ClusterConfig{P: 2, Servers: -1}); !errors.Is(err, ErrBadArg) {
		t.Errorf("Servers=-1: %v, want ErrBadArg", err)
	}
	if _, err := StartCluster(rt, ClusterConfig{P: 2, Replicas: -3}); !errors.Is(err, ErrBadArg) {
		t.Errorf("Replicas=-3: %v, want ErrBadArg", err)
	}
}
