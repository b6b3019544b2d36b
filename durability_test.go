package bridge

import (
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"testing"
)

// TestCleanShutdownDurable is the facade durability contract: with
// Config.DataDir and Config.Journal set, everything written before a clean
// Run exit must survive into a second System that remounts the same
// directory — no explicit Sync required, because Run quiesces every live
// volume on shutdown. The Bridge name directory itself is a single
// in-memory authority (see ROADMAP: metadata HA), so the second process
// verifies at the volume level: recovery reports that replayed each clean
// store without walking it, and an explicit Fsck's exact number of chain
// blocks.
func TestCleanShutdownDurable(t *testing.T) {
	const nodes, blocks = 4, 32
	dir := t.TempDir()
	cfg := Config{Nodes: nodes, DiskBlocks: 512, Journal: 64, DataDir: dir}

	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = sys.Run(func(s *Session) error {
		if err := s.Create("f"); err != nil {
			return err
		}
		for i := 0; i < blocks; i++ {
			if err := s.Append("f", robustPayload(i)); err != nil {
				return err
			}
		}
		// No Sync: the clean exit below is the durability point under test.
		return nil
	})
	if err != nil {
		t.Fatalf("write run: %v", err)
	}

	sys2, err := New(cfg)
	if err != nil {
		t.Fatalf("New (remount): %v", err)
	}
	err = sys2.Run(func(s *Session) error {
		chain := 0
		for i := 0; i < nodes; i++ {
			rep, err := s.Inspect().Recovery(i)
			if err != nil {
				t.Errorf("node %d: recovery report: %v", i, err)
				continue
			}
			if !rep.Journaled || !rep.CleanAtOpen || !rep.Clean() {
				t.Errorf("node %d: remount recovery not clean at open: journaled %v, clean at open %v, fsck err %q, problems %v",
					i, rep.Journaled, rep.CleanAtOpen, rep.FsckErr, rep.Fsck.Problems)
			}
			ck, err := s.Fsck(i)
			if err != nil {
				t.Errorf("node %d: fsck: %v", i, err)
				continue
			}
			chain += ck.ChainBlocks
		}
		if chain != blocks {
			t.Errorf("remounted volumes hold %d chain blocks, want %d", chain, blocks)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("remount run: %v", err)
	}
}

// TestSessionSyncOnceEachNodePerShard: Session.Sync is one FlushAll, in
// which every shard's server syncs every storage node in parallel — so each
// node receives exactly one SyncReq per shard, and no second, one-node-at-a-
// time pass follows.
func TestSessionSyncOnceEachNodePerShard(t *testing.T) {
	const nodes, shards = 4, 2
	for _, replicas := range []int{1, 3} {
		cfg := Config{Nodes: nodes, Servers: shards, Replicas: replicas, Obs: &ObsConfig{}}
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		syncs := func(s *Session) map[int]int {
			n := map[int]int{}
			for _, sp := range s.Inspect().Spans() {
				if sp.Kind == "lfs.sync" {
					n[sp.Node]++
				}
			}
			return n
		}
		err = sys.Run(func(s *Session) error {
			for _, name := range []string{"a", "b", "c", "d"} {
				if err := s.Create(name); err != nil {
					return err
				}
				if err := s.Append(name, robustPayload(0)); err != nil {
					return err
				}
			}
			before := syncs(s)
			if err := s.Sync(); err != nil {
				return err
			}
			after := syncs(s)
			if len(after) != nodes {
				t.Errorf("Replicas=%d: syncs reached %d nodes, want %d", replicas, len(after), nodes)
			}
			for node, n := range after {
				if got := n - before[node]; got != shards {
					t.Errorf("Replicas=%d: node %d received %d SyncReqs, want one per shard (%d)", replicas, node, got, shards)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Replicas=%d: run: %v", replicas, err)
		}
	}
}

// TestSessionSyncDurable proves the explicit barrier: after Session.Sync
// returns, the data is on stable storage even if the process never exits
// cleanly — modeled here by kill-9ing every node before the run ends.
func TestSessionSyncDurable(t *testing.T) {
	const nodes, blocks = 4, 16
	dir := t.TempDir()
	cfg := Config{Nodes: nodes, DiskBlocks: 512, Journal: 64, DataDir: dir}

	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = sys.Run(func(s *Session) error {
		if err := s.Create("f"); err != nil {
			return err
		}
		for i := 0; i < blocks; i++ {
			if err := s.Append("f", robustPayload(i)); err != nil {
				return err
			}
		}
		if err := s.Sync(); err != nil {
			return err
		}
		// Power-cut every node after the barrier: whatever the volatile
		// write caches still held is lost, the synced state is not.
		for i := 0; i < nodes; i++ {
			if err := s.CrashNode(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("write run: %v", err)
	}

	sys2, err := New(cfg)
	if err != nil {
		t.Fatalf("New (remount): %v", err)
	}
	err = sys2.Run(func(s *Session) error {
		chain := 0
		for i := 0; i < nodes; i++ {
			rep, err := s.Inspect().Recovery(i)
			if err != nil {
				t.Errorf("node %d: recovery report: %v", i, err)
				continue
			}
			if !rep.Journaled || !rep.Clean() {
				t.Errorf("node %d: remount recovery not clean: journaled %v, fsck err %q, problems %v",
					i, rep.Journaled, rep.FsckErr, rep.Fsck.Problems)
			}
			ck, err := s.Fsck(i)
			if err != nil {
				t.Errorf("node %d: fsck: %v", i, err)
				continue
			}
			chain += ck.ChainBlocks
		}
		if chain != blocks {
			t.Errorf("remounted volumes hold %d chain blocks, want %d", chain, blocks)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("remount run: %v", err)
	}
}

// TestReplicatedRerunIsANewClient reruns a replicated directory on its
// DataDir: each Run's session client is a new client, though it has the
// same address as the last Run's and its replicas recover that Run's op
// table. Its operations must run, not be answered from (or refused by) its
// predecessor's records.
func TestReplicatedRerunIsANewClient(t *testing.T) {
	cfg := Config{Nodes: 4, DiskBlocks: 512, Journal: 64, DataDir: t.TempDir(), Replicas: 3}
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	names := []string{"a", "b", "c"}
	for run, name := range names {
		err := sys.Run(func(s *Session) error {
			if err := s.Create(name); err != nil {
				return fmt.Errorf("create %s: %w", name, err)
			}
			if err := s.Append(name, robustPayload(run)); err != nil {
				return fmt.Errorf("append %s: %w", name, err)
			}
			for i, prev := range names[:run+1] {
				got, err := s.ReadAt(prev, 0)
				if err != nil || !bytes.Equal(got, robustPayload(i)) {
					return fmt.Errorf("%s block 0: %v, err %v", prev, got[:min(len(got), 8)], err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// TestRunClosesStores: a Run on a DataDir closes every store it opened, the
// nodes' and, in a replicated group, each member's consensus disk, so ten
// Runs leave the process's open files where they started. Garbage
// collection is off, so no finalizer closes what a Run leaks.
func TestRunClosesStores(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open files")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	openFiles := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	for _, replicas := range []int{1, 3} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			sys, err := New(Config{Nodes: 4, DiskBlocks: 512, Journal: 64, DataDir: t.TempDir(), Replicas: replicas})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			before := openFiles()
			for i := 0; i < 10; i++ {
				if err := sys.Run(func(s *Session) error { return s.Sync() }); err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			if after := openFiles(); after != before {
				t.Errorf("ten Runs took the open files from %d to %d", before, after)
			}
		})
	}
}
