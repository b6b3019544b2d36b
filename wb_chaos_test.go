package bridge

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"bridge/internal/chaosseed"
	"bridge/internal/core"
	"bridge/internal/efs"
	"bridge/internal/fault"
)

// TestWriteBehindCrashMidGroupCommit kill-9s every node while a
// write-behind group commit is in flight. The contract: blocks covered
// by the last Flush survive, unflushed acknowledgements may be lost, and
// every remounted volume replays its journal to a clean, fsck-verified
// state — a torn group commit never corrupts a chain.
func TestWriteBehindCrashMidGroupCommit(t *testing.T) {
	const nodes, flushed, buffered = 4, 16, 13
	dir := t.TempDir()
	cfg := Config{Nodes: nodes, DiskBlocks: 512, Journal: 64, DataDir: dir, WriteBehind: 2}

	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = sys.Run(func(s *Session) error {
		if err := s.Create("f"); err != nil {
			return err
		}
		for i := 0; i < flushed; i++ {
			if err := s.Append("f", robustPayload(i)); err != nil {
				return err
			}
		}
		// The durability point: drain the buffer and sync f's nodes.
		if _, err := s.Flush("f"); err != nil {
			return err
		}
		// Refill the buffer; at window 2 stripes (8 blocks) this leaves a
		// vectored group commit in flight and more blocks still buffered.
		for i := 0; i < buffered; i++ {
			if err := s.Append("f", robustPayload(flushed+i)); err != nil {
				return err
			}
		}
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
			if len(ck.Problems) != 0 {
				t.Errorf("node %d: fsck problems after torn group commit: %v", i, ck.Problems)
			}
			chain += ck.ChainBlocks
		}
		if chain < flushed || chain > flushed+buffered {
			t.Errorf("remounted volumes hold %d chain blocks, want %d..%d",
				chain, flushed, flushed+buffered)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("remount run: %v", err)
	}
}

// wbChaosSeeds lets CI vary the write-behind kill-9 seed (BRIDGE_WB_SEED)
// without a code change. By default the suite runs seeds 81, whose kill
// lands while a window is half started, and 120, whose kill lands while one
// is half gathered.
func wbChaosSeeds(t *testing.T) []int64 {
	t.Helper()
	if seed, ok := chaosseed.FromEnv(t, "BRIDGE_WB_SEED", 0); ok {
		return []int64{seed}
	}
	return []int64{81, 120}
}

// TestWriteBehindChaosKill9 is TestWriteBehindCrashMidGroupCommit at a
// seeded instant: a write-behind stream — seeded rounds of appends, each
// ended by a Flush — runs on journaled, file-backed nodes, and every node is
// kill-9ed at a seeded virtual time inside it (seeded torn writes included),
// so the kill lands while a window is armed, half-started or half-gathered,
// or between windows. The stream stops at its first error, then flushes the
// file three more times. The contract:
//
//   - nothing fails before the kill;
//   - ErrDeferredWrite surfaces at most once;
//   - after a remount every volume replays clean and is Fsck-clean, and
//     every block the last successful Flush covered is on its node, byte
//     for byte.
//
// The whole run repeats in-process and must produce the same trace. With
// BRIDGE_WB_TRACE_OUT set the trace is also written to <path>.seed<N>, so CI
// can compare it across processes.
func TestWriteBehindChaosKill9(t *testing.T) {
	for _, seed := range wbChaosSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			chaosseed.Repro(t, "BRIDGE_WB_SEED", seed, ".")
			tr1 := runWBChaos(t, seed, t.TempDir())
			tr2 := runWBChaos(t, seed, t.TempDir())
			if tr1 != tr2 {
				t.Errorf("same seed, different runs: %s", firstDiff(tr1, tr2))
			}
			if out := os.Getenv("BRIDGE_WB_TRACE_OUT"); out != "" {
				path := fmt.Sprintf("%s.seed%d", out, seed)
				if err := os.WriteFile(path, []byte(tr1), 0o644); err != nil {
					t.Fatalf("dump trace: %v", err)
				}
			}
		})
	}
}

// runWBChaos is one TestWriteBehindChaosKill9 run; it returns the trace.
func runWBChaos(t *testing.T, seed int64, dir string) string {
	const nodes = 4
	rng := rand.New(rand.NewSource(seed))
	killAt := 600*time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Second))) // the stream starts at ≈0.3 s
	inj := NewFaultInjector(seed)
	inj.SetCrashModel(CrashModel{TornProb: 0.5})
	for i := 0; i < nodes; i++ {
		inj.NodeSchedule(fault.NodeEvent{At: killAt, Node: i, Kind: fault.Kill})
	}
	cfg := Config{
		Nodes: nodes, DiskBlocks: 1024, Journal: 64, DataDir: dir,
		WriteBehind: 2, LFSTimeout: 2 * time.Second, Fault: inj,
	}
	var tr strings.Builder
	fmt.Fprintf(&tr, "seed %d: kill every node at %v\n", seed, killAt)
	var lfsID uint32
	attempted, appended, flushed, deferred := 0, 0, 0, 0
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = sys.Run(func(s *Session) error {
		if err := s.Create("f"); err != nil {
			return err
		}
		info, err := s.Stat("f")
		if err != nil {
			return err
		}
		lfsID = info.LFSFileID
		note := func(what string, err error) bool {
			fmt.Fprintf(&tr, "%v %s: %v\n", s.Now(), what, err)
			if errors.Is(err, ErrDeferredWrite) {
				deferred++
			}
			if err != nil && s.Now() < killAt {
				t.Errorf("%s failed before the kill: %v", what, err)
			}
			return err == nil
		}
	stream:
		for {
			if s.Now() > killAt+time.Minute {
				t.Errorf("no operation failed in the minute after the kill")
				break
			}
			for n := 16 + rng.Intn(113); n > 0; n-- {
				attempted++
				if !note(fmt.Sprintf("append %d", appended), s.Append("f", robustPayload(appended))) {
					break stream
				}
				appended++
			}
			if _, err := s.Flush("f"); !note("flush", err) {
				break
			}
			flushed = appended
		}
		for i := 0; i < 3; i++ {
			_, err := s.Flush("f")
			note("probe flush", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream run: %v", err)
	}
	if deferred > 1 {
		t.Errorf("ErrDeferredWrite surfaced %d times, want at most once", deferred)
	}
	fmt.Fprintf(&tr, "appended %d, flushed %d, deferred errors %d\n", appended, flushed, deferred)

	sys2, err := New(Config{Nodes: nodes, DiskBlocks: 1024, Journal: 64, DataDir: dir})
	if err != nil {
		t.Fatalf("New (remount): %v", err)
	}
	err = sys2.Run(func(s *Session) error {
		chain := 0
		for i := 0; i < nodes; i++ {
			rep, err := s.Inspect().Recovery(i)
			if err != nil {
				return fmt.Errorf("node %d: recovery report: %w", i, err)
			}
			if !rep.Journaled || !rep.Clean() {
				t.Errorf("node %d: remount recovery not clean: journaled %v, fsck err %q, problems %v",
					i, rep.Journaled, rep.FsckErr, rep.Fsck.Problems)
			}
			ck, err := s.Fsck(i)
			if err != nil {
				return fmt.Errorf("node %d: fsck: %w", i, err)
			}
			if len(ck.Problems) != 0 {
				t.Errorf("node %d: fsck problems: %v", i, ck.Problems)
			}
			fmt.Fprintf(&tr, "node %d: replayed %d entries, chain blocks %d\n", i, rep.Replay.Entries, ck.ChainBlocks)
			chain += ck.ChainBlocks
		}
		if chain > attempted {
			t.Errorf("volumes hold %d chain blocks, more than the %d appends", chain, attempted)
		}
		// Round-robin from node 0: global block g is local block g/nodes on
		// node g%nodes.
		_, err := s.RunTool("wb-verify", func(ctx *ToolCtx) (any, error) {
			for g := ctx.Index; g < flushed; g += nodes {
				data, _, err := ctx.LFS.Read(ctx.Node, lfsID, uint32(g/nodes), -1)
				if err != nil {
					return nil, fmt.Errorf("flushed block %d: %w", g, err)
				}
				h, payload, err := core.DecodeBlock(data)
				if err != nil || h.GlobalBlock != int64(g) || !bytes.Equal(payload, robustPayload(g)) {
					return nil, fmt.Errorf("flushed block %d: header %+v, %v, or wrong bytes", g, h, err)
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Errorf("after the remount: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("remount run: %v", err)
	}
	return tr.String()
}

// TestParallelDeleteCrashRecovery kill-9s every node right after a
// parallel delete returns, before any sync barrier: some nodes' frees
// reach the media and others' do not. Remounted volumes must replay
// their journals cleanly, and FsckRepair must converge each bitmap with
// its reachable chains, leaving every volume clean and fully usable.
func TestParallelDeleteCrashRecovery(t *testing.T) {
	const nodes, blocks = 4, 24
	dir := t.TempDir()
	cfg := Config{Nodes: nodes, DiskBlocks: 512, Journal: 64, DataDir: dir, ParallelDelete: true}

	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var fileID uint32
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
		meta, err := s.Stat("f")
		if err != nil {
			return err
		}
		fileID = meta.LFSFileID
		freed, err := s.Delete("f")
		if err != nil {
			return err
		}
		if freed != blocks {
			t.Errorf("parallel delete freed %d blocks, want %d", freed, blocks)
		}
		if _, err := s.Stat("f"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Stat after delete = %v; want ErrNotFound", err)
		}
		for i := 0; i < nodes; i++ {
			if err := s.CrashNode(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("delete run: %v", err)
	}

	sys2, err := New(cfg)
	if err != nil {
		t.Fatalf("New (remount): %v", err)
	}
	err = sys2.Run(func(s *Session) error {
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
		}
		// Re-drive the torn delete: the per-node fast delete is idempotent
		// (a node whose free reached the media reports not-found), so
		// replaying it converges every volume to the deleted state.
		if _, err := s.RunTool("edelete-replay", func(ctx *ToolCtx) (any, error) {
			freed, err := ctx.LFS.Delete(ctx.Node, fileID, blocks, true)
			if errors.Is(err, efs.ErrNotFound) {
				return 0, nil
			}
			return freed, err
		}); err != nil {
			return err
		}
		// Converge each bitmap with its reachable chains and verify clean.
		for i := 0; i < nodes; i++ {
			if _, _, err := s.FsckRepair(i); err != nil {
				t.Errorf("node %d: fsck repair: %v", i, err)
				continue
			}
			ck, err := s.Fsck(i)
			if err != nil {
				t.Errorf("node %d: fsck after repair: %v", i, err)
				continue
			}
			if len(ck.Problems) != 0 {
				t.Errorf("node %d: problems after repair: %v", i, ck.Problems)
			}
		}
		// The volumes stay fully usable: a fresh file round-trips.
		if err := s.Create("g"); err != nil {
			return err
		}
		for i := 0; i < blocks; i++ {
			if err := s.Append("g", robustPayload(100+i)); err != nil {
				return err
			}
		}
		got, err := s.ReadAll("g")
		if err != nil {
			return err
		}
		for i, b := range got {
			if !bytes.Equal(b, robustPayload(100+i)) {
				t.Errorf("block %d differs after recovery", i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("remount run: %v", err)
	}
}

// TestWriteCampaignTraceDeterministic runs the whole PR 8 write path —
// write-behind appends, an explicit Flush, a parallel delete, and a
// recreate — twice under the span recorder and requires byte-identical
// Chrome traces: the relaxed write path keeps the simulation replayable.
func TestWriteCampaignTraceDeterministic(t *testing.T) {
	run := func() string {
		t.Helper()
		sys, err := New(Config{
			Nodes:          4,
			DiskBlocks:     256,
			DiskLatency:    time.Millisecond,
			WriteBehind:    2,
			ParallelDelete: true,
			Obs:            &ObsConfig{SampleEvery: time.Millisecond},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var insp Inspector
		if err := sys.Run(func(s *Session) error {
			if err := s.Create("f"); err != nil {
				return err
			}
			for i := 0; i < 20; i++ {
				if err := s.Append("f", robustPayload(i)); err != nil {
					return err
				}
			}
			if _, err := s.Flush("f"); err != nil {
				return err
			}
			if _, err := s.Delete("f"); err != nil {
				return err
			}
			if err := s.Create("f"); err != nil {
				return err
			}
			for i := 0; i < 8; i++ {
				if err := s.Append("f", robustPayload(50+i)); err != nil {
					return err
				}
			}
			if err := s.Sync(); err != nil {
				return err
			}
			m := s.Metrics()
			if m.Counter("bridge.wb_flushes") == 0 {
				t.Error("no write-behind flushes recorded")
			}
			if m.Counter("bridge.pdel_files") != 1 {
				t.Errorf("pdel_files = %d, want 1", m.Counter("bridge.pdel_files"))
			}
			insp = s.Inspect()
			return nil
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var tr bytes.Buffer
		if err := insp.WriteChromeTrace(&tr); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		return tr.String()
	}
	if run() != run() {
		t.Error("Chrome traces differ between identical write-campaign runs")
	}
}

// TestWriteBehindLeaderFailoverDeferred kill-9s the replicated leader
// while it holds acknowledged-but-unlanded write-behind blocks. The
// failover contract extends the flush-failure contract: the new leader
// rolls the file back to its durable prefix, the first operation to touch
// it surfaces ErrDeferredWrite exactly once, and everything before the
// explicit Flush durability point survives byte-for-byte.
func TestWriteBehindLeaderFailoverDeferred(t *testing.T) {
	const nodes, flushed, buffered = 4, 16, 13
	cfg := Config{
		Nodes: nodes, DiskBlocks: 512, Journal: 64, DataDir: t.TempDir(),
		WriteBehind: 2, Replicas: 3,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = sys.Run(func(s *Session) error {
		if err := s.Create("f"); err != nil {
			return err
		}
		for i := 0; i < flushed; i++ {
			if err := s.Append("f", robustPayload(i)); err != nil {
				return err
			}
		}
		// The durability point: every acknowledged block is on the media.
		if _, err := s.Flush("f"); err != nil {
			return err
		}
		// Refill the buffer: at window 2 stripes (8 blocks) one group
		// commit goes in flight and the remainder sits buffered on the
		// leader — volatile state the kill destroys.
		for i := 0; i < buffered; i++ {
			if err := s.Append("f", robustPayload(flushed+i)); err != nil {
				return err
			}
		}
		lead := s.LeaderServer(0)
		if lead < 0 {
			return errors.New("no leader while appending")
		}
		if err := s.CrashServer(0, lead); err != nil {
			return err
		}
		// The new leader reconciles the orphaned write-behind state during
		// takeover; the first operation touching f pays the deferred error.
		_, err := s.Stat("f")
		if !errors.Is(err, ErrDeferredWrite) {
			return fmt.Errorf("first op after failover = %v, want ErrDeferredWrite", err)
		}
		// Exactly once: the error is consumed, and the rolled-back size is
		// the durable prefix — nothing before the Flush may be lost.
		info, err := s.Stat("f")
		if err != nil {
			return fmt.Errorf("second stat after failover: %w", err)
		}
		if info.Blocks < flushed || info.Blocks > flushed+buffered {
			return fmt.Errorf("rolled-back size %d, want %d..%d", info.Blocks, flushed, flushed+buffered)
		}
		for i := 0; i < flushed; i++ {
			b, err := s.ReadAt("f", int64(i))
			if err != nil {
				return fmt.Errorf("read %d after rollback: %w", i, err)
			}
			if !bytes.Equal(b, robustPayload(i)) {
				return fmt.Errorf("block %d corrupted by rollback", i)
			}
		}
		// The file stays fully usable: appends land at the rolled-back
		// size and read back.
		at := info.Blocks
		if err := s.Append("f", robustPayload(999)); err != nil {
			return fmt.Errorf("append after rollback: %w", err)
		}
		if _, err := s.Flush("f"); err != nil {
			return fmt.Errorf("flush after rollback: %w", err)
		}
		b, err := s.ReadAt("f", at)
		if err != nil || !bytes.Equal(b, robustPayload(999)) {
			return fmt.Errorf("append after rollback did not land: %v", err)
		}
		// The revived replica rejoins as a follower and catches up.
		if err := s.RestartServer(0, lead); err != nil {
			return err
		}
		if err := s.Append("f", robustPayload(1000)); err != nil {
			return err
		}
		s.Proc().Sleep(time.Second)
		st := s.Inspect().Raft(0)
		if st[lead].Commit != st[s.LeaderServer(0)].Commit {
			return fmt.Errorf("revived replica behind: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}
