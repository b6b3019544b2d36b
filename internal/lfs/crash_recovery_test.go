package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"bridge/internal/chaosseed"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// chaosHook is the kill-9 model for the chaos test: a crash keeps a
// seeded-random prefix of the unsynced writes and sometimes tears the first
// lost block. Every decision is appended to the run trace, so two runs from
// the same seed must crash identically.
type chaosHook struct {
	rng   *rand.Rand
	trace *strings.Builder
	lost  int
	torn  int
}

func (h *chaosHook) OnCrash(now time.Duration, label string, pending []int) disk.CrashOutcome {
	out := disk.CrashOutcome{Keep: h.rng.Intn(len(pending) + 1)}
	if out.Keep < len(pending) && h.rng.Intn(2) == 0 {
		out.TornBytes = 1 + h.rng.Intn(efs.BlockSize-1)
	}
	h.lost += len(pending) - out.Keep
	if out.TornBytes > 0 {
		h.torn++
	}
	fmt.Fprintf(h.trace, "  crash at %v: kept %d of %d, torn %d bytes\n",
		now, out.Keep, len(pending), out.TornBytes)
	return out
}

// chaosClient wraps the LFS client with timeouts, so calls into a crashed
// node end the round instead of deadlocking the simulation.
type chaosClient struct {
	c       *Client
	node    msg.NodeID
	down    bool
	refused error // the boot failure a node that could not boot answered with
}

func (cc *chaosClient) call(body any) (any, bool) {
	if cc.down {
		return nil, false
	}
	m, err := cc.c.C.CallTimeout(lfsAddr(cc.node), body, WireSize(body), 5*time.Second)
	if err != nil {
		cc.down = true
		return nil, false
	}
	if st, refused := m.Body.(msg.Status); refused {
		// The node answers, but its volume did not boot.
		cc.down, cc.refused = true, Err(st)
		return nil, false
	}
	return m.Body, true
}

func (cc *chaosClient) create(fileID uint32) bool {
	b, ok := cc.call(CreateReq{FileID: fileID})
	return ok && Err(b.(CreateResp).Status) == nil
}

func (cc *chaosClient) write(fileID, bn uint32, data []byte) bool {
	b, ok := cc.call(WriteReq{FileID: fileID, BlockNum: bn, Data: data, Hint: -1})
	return ok && Err(b.(WriteResp).Status) == nil
}

// appendRun appends datas at block bn in one WriteVecReq, which the node
// serves as one efs.AppendRun.
func (cc *chaosClient) appendRun(fileID, bn uint32, datas [][]byte) bool {
	req := WriteVecReq{FileID: fileID, Hint: -1}
	for i, d := range datas {
		req.Blocks = append(req.Blocks, VecWrite{BlockNum: bn + uint32(i), Data: d})
	}
	b, ok := cc.call(req)
	if !ok {
		return false
	}
	r := b.(WriteVecResp)
	for _, w := range r.Blocks {
		if Err(w.Status) != nil {
			return false
		}
	}
	return Err(r.Status) == nil
}

func (cc *chaosClient) delete(fileID uint32) bool {
	b, ok := cc.call(DeleteReq{FileID: fileID})
	return ok && Err(b.(DeleteResp).Status) == nil
}

// chaosOp runs one seeded operation on file f and mirrors it in model: an
// append of one block or of a run, or — unless appendOnly — an overwrite of
// a random block (the tail included) or a delete and re-create. It reports
// whether the node answered.
func chaosOp(cc *chaosClient, rng *rand.Rand, model map[uint32][][]byte, f uint32, appendOnly bool) bool {
	blocks := model[f]
	data := func() []byte { return bytes.Repeat([]byte{byte(rng.Intn(256))}, 1+rng.Intn(200)) }
	kind := rng.Intn(12)
	if appendOnly {
		kind = 4 + rng.Intn(8)
	}
	switch {
	case kind == 0:
		if !cc.delete(f) || !cc.create(f) {
			return false
		}
		model[f] = nil
	case kind <= 3 && len(blocks) > 0:
		bn := rng.Intn(len(blocks))
		d := data()
		if !cc.write(f, uint32(bn), d) {
			return false
		}
		blocks[bn] = d
	case kind <= 7:
		run := make([][]byte, 2+rng.Intn(4))
		for i := range run {
			run[i] = data()
		}
		if !cc.appendRun(f, uint32(len(blocks)), run) {
			return false
		}
		model[f] = append(blocks, run...)
	default:
		d := data()
		if !cc.write(f, uint32(len(blocks)), d) {
			return false
		}
		model[f] = append(blocks, d)
	}
	return true
}

func (cc *chaosClient) read(fileID, bn uint32) ([]byte, bool) {
	b, ok := cc.call(ReadReq{FileID: fileID, BlockNum: bn, Hint: -1})
	if !ok {
		return nil, false
	}
	r := b.(ReadResp)
	if Err(r.Status) != nil {
		return nil, false
	}
	return r.Data, true
}

func (cc *chaosClient) sync() bool {
	b, ok := cc.call(SyncReq{})
	return ok && Err(b.(SyncResp).Status) == nil
}

// recovery returns the node's boot report. fresh is true when the boot
// formatted the device — a format a crash cut short is redone — and so had
// nothing to recover. A volume whose store was clean at open was not walked
// at its mount: recovery walks it with a CheckReq and reports that walk as
// the report's Fsck, so every remount is verified either way.
func (cc *chaosClient) recovery() (rep RecoveryReport, fresh, ok bool) {
	b, ok := cc.call(RecoveryReq{})
	if !ok {
		return rep, false, false
	}
	r := b.(RecoveryResp)
	if err := Err(r.Status); err != nil {
		return rep, errors.Is(err, efs.ErrNotFound), errors.Is(err, efs.ErrNotFound)
	}
	rep = r.Report
	if rep.CleanAtOpen {
		// A node that crashes mid-walk sends no reply, so the call times
		// out like any call into a dead node.
		if b, ok = cc.call(CheckReq{}); !ok {
			cc.down = true
			return rep, false, false
		}
		ck := b.(CheckResp)
		if rep.Fsck = ck.Report; !ck.OK() {
			rep.FsckErr = ck.Detail()
		}
	}
	return rep, false, true
}

func sortedIDs(m map[uint32][][]byte) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// runChaosKill9 is one full chaos run: `rounds` boot/workload/kill-9 cycles
// against a single journaled node backed by a durable disk image in dir,
// then a final clean boot that must recover everything ever committed.
// The returned trace captures every crash decision, replay, and
// verification outcome; runs from the same seed must produce identical
// traces.
func runChaosKill9(t *testing.T, seed int64, dir string, rounds int) string {
	t.Helper()
	rngOps := rand.New(rand.NewSource(seed))
	var trace strings.Builder
	hook := &chaosHook{rng: rand.New(rand.NewSource(seed ^ 0x9e3779b9)), trace: &trace}
	cfg := Config{
		DiskBlocks: 2048,
		DiskDir:    dir,
		EFS:        efs.Options{JournalBlocks: 48, CacheBlocks: 16},
	}
	sealed := make(map[uint32][][]byte) // contents committed by an acked Sync
	replays := 0

	for round := 0; round < rounds; round++ {
		fmt.Fprintf(&trace, "round %d\n", round)
		rt := sim.NewVirtual()
		net := msg.NewNetwork(rt, msg.DefaultConfig())
		node, err := StartNode(rt, net, 1, cfg, nil)
		if err != nil {
			t.Fatalf("round %d: StartNode: %v", round, err)
		}
		node.Disk.SetCrashHook(hook)

		// Most crashes land mid-workload (and, with the journal committing
		// continuously, mid-journal-write); every fourth lands within the
		// boot window, killing the mount mid-replay or mid-fsck.
		crashAt := time.Duration(200+hook.rng.Intn(4000)) * time.Millisecond
		if round%4 == 3 {
			crashAt = time.Duration(hook.rng.Intn(400)) * time.Millisecond
		}
		rt.Go("crasher", func(p sim.Proc) {
			p.Sleep(crashAt)
			node.Crash(p.Now())
		})

		rt.Go("workload", func(p sim.Proc) {
			cc := &chaosClient{c: NewClient(p, net, 0, "chaos"), node: node.ID}
			if round > 0 {
				if rep, fresh, ok := cc.recovery(); fresh {
					// Only a format that never finished is formatted again,
					// and it cannot have held anything committed.
					if len(sealed) > 0 {
						t.Errorf("round %d: a volume holding %d committed files was formatted again", round, len(sealed))
					}
					fmt.Fprintf(&trace, "  recovery: format redone\n")
				} else if ok {
					if !rep.Journaled {
						t.Errorf("round %d: remounted volume reports no journal", round)
					}
					if !rep.Clean() {
						t.Errorf("round %d: recovery not clean: fsck err %q, problems %v",
							round, rep.FsckErr, rep.Fsck.Problems)
					}
					if rep.Replay.Entries > 0 {
						replays++
					}
					fmt.Fprintf(&trace, "  recovery: entries %d images %d fixes %d torn %v files %d\n",
						rep.Replay.Entries, rep.Replay.Images, rep.Replay.Fixes,
						rep.Replay.TornTail, rep.Fsck.Files)
				} else {
					if cc.refused != nil {
						t.Errorf("round %d: %v", round, cc.refused)
					}
					fmt.Fprintf(&trace, "  recovery: node down\n")
					return
				}
			}
			// Spot-check the most recently committed files before new work.
			ids := sortedIDs(sealed)
			if len(ids) > 6 {
				ids = ids[len(ids)-6:]
			}
			for _, id := range ids {
				for bn, want := range sealed[id] {
					got, ok := cc.read(id, uint32(bn))
					if !ok {
						fmt.Fprintf(&trace, "  verify: node down at file %d\n", id)
						return
					}
					if !bytes.Equal(got, want) {
						t.Errorf("round %d: committed file %d block %d corrupted after recovery", round, id, bn)
					}
				}
			}
			fmt.Fprintf(&trace, "  verified %d committed files\n", len(ids))

			// New work on ids never used before, so a lost Sync ack leaves
			// no ambiguity about what the next round must find.
			base := uint32(1000 + round*10)
			model := make(map[uint32][][]byte)
			for f := base; f < base+3; f++ {
				if !cc.create(f) {
					fmt.Fprintf(&trace, "  workload: down before create %d\n", f)
					return
				}
				model[f] = nil
			}
			// Appends (single blocks and runs) interleave with overwrites —
			// the tail's too — and delete-and-recreate, so a crash can land
			// between any append and the next, with a file's tail held.
			nOps := 12 + rngOps.Intn(12)
			for i := 0; i < nOps; i++ {
				if !chaosOp(cc, rngOps, model, base+uint32(rngOps.Intn(3)), false) {
					fmt.Fprintf(&trace, "  workload: down at op %d\n", i)
					return
				}
			}
			if !cc.sync() {
				fmt.Fprintf(&trace, "  workload: down at sync\n")
				return
			}
			// The Sync ack is the commit point: everything in the model is
			// now durable and must survive every later crash.
			seal := func() {
				for f, blocks := range model {
					sealed[f] = append([][]byte(nil), blocks...)
				}
			}
			seal()
			fmt.Fprintf(&trace, "  committed %d ops across 3 files\n", nOps)
			// More appends onto committed tails, then a second commit; a
			// crash before it must leave the first commit's bytes intact.
			more := 2 + rngOps.Intn(6)
			for i := 0; i < more; i++ {
				if !chaosOp(cc, rngOps, model, base+uint32(rngOps.Intn(3)), true) {
					fmt.Fprintf(&trace, "  workload: down at append %d\n", i)
					return
				}
			}
			if !cc.sync() {
				fmt.Fprintf(&trace, "  workload: down at second sync\n")
				return
			}
			seal()
			fmt.Fprintf(&trace, "  committed %d more appends\n", more)
		})
		if err := rt.Wait(); err != nil {
			t.Fatalf("round %d: sim: %v", round, err)
		}
	}

	// Final clean boot: everything ever committed must be there, byte for
	// byte, and fsck must find zero corrupt and zero leaked blocks.
	rt := sim.NewVirtual()
	net := msg.NewNetwork(rt, msg.DefaultConfig())
	node, err := StartNode(rt, net, 1, cfg, nil)
	if err != nil {
		t.Fatalf("final boot: %v", err)
	}
	rt.Go("final", func(p sim.Proc) {
		defer node.Stop()
		cc := &chaosClient{c: NewClient(p, net, 0, "final"), node: node.ID}
		rep, fresh, ok := cc.recovery()
		switch {
		case fresh:
			if len(sealed) > 0 {
				t.Errorf("final boot: a volume holding %d committed files was formatted again", len(sealed))
			}
		case !ok:
			t.Errorf("final boot: no recovery report (%v)", cc.refused)
			return
		case !rep.Journaled || !rep.Clean():
			t.Errorf("final boot: recovery not clean: journaled %v, fsck err %q, problems %v",
				rep.Journaled, rep.FsckErr, rep.Fsck.Problems)
		}
		fmt.Fprintf(&trace, "final: entries %d torn %v files %d chain blocks %d\n",
			rep.Replay.Entries, rep.Replay.TornTail, rep.Fsck.Files, rep.Fsck.ChainBlocks)
		for _, id := range sortedIDs(sealed) {
			for bn, want := range sealed[id] {
				got, ok := cc.read(id, uint32(bn))
				if !ok {
					t.Errorf("final boot: committed file %d block %d unreadable", id, bn)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("final boot: committed file %d block %d differs", id, bn)
				}
			}
		}
		fmt.Fprintf(&trace, "final: verified %d committed files\n", len(sealed))
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("final boot: sim: %v", err)
	}

	if hook.lost == 0 {
		t.Error("chaos run never lost an unsynced write; the kill-9 model was not exercised")
	}
	if hook.torn == 0 {
		t.Error("chaos run never tore a write; the torn-write model was not exercised")
	}
	if replays == 0 {
		t.Error("no remount ever replayed journal entries; the crashes were all too gentle")
	}
	fmt.Fprintf(&trace, "totals: lost %d torn %d replays %d committed files %d\n",
		hook.lost, hook.torn, replays, len(sealed))
	return trace.String()
}

// crashSeeds lets CI vary the kill-9 seed (BRIDGE_CRASH_SEED) without a
// code change; the recovery assertions hold for any seed.
func crashSeeds(t *testing.T) []int64 {
	t.Helper()
	if seed, ok := chaosseed.FromEnv(t, "BRIDGE_CRASH_SEED", 0); ok {
		return []int64{seed}
	}
	return []int64{7, 1042}
}

// TestChaosKill9Recovery is the crash-consistency acceptance test: a
// journaled, file-backed node is killed at 24 seeded virtual times — mid
// workload, mid journal commit, and mid replay — and every remount must
// replay the journal to a clean, byte-correct volume. The whole run is then
// repeated from the same seed and must produce an identical event trace.
// With BRIDGE_CRASH_TRACE_OUT set, the trace is also written to
// "<out>.seed<N>" so CI can cmp traces across processes.
func TestChaosKill9Recovery(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			chaosseed.Repro(t, "BRIDGE_CRASH_SEED", seed, "./internal/lfs/")
			tr1 := runChaosKill9(t, seed, t.TempDir(), 24)
			tr2 := runChaosKill9(t, seed, t.TempDir(), 24)
			if tr1 != tr2 {
				t.Errorf("same seed, different runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", tr1, tr2)
			}
			if out := os.Getenv("BRIDGE_CRASH_TRACE_OUT"); out != "" {
				path := fmt.Sprintf("%s.seed%d", out, seed)
				if err := os.WriteFile(path, []byte(tr1), 0o644); err != nil {
					t.Fatalf("writing recovery trace: %v", err)
				}
			}
		})
	}
}

// TestFormatKilledAtEveryWrite kills a journaled node's first boot inside
// its Format — during every write and every barrier, keeping none, all, or
// a seeded part of the unsynced writes — and boots it again. Every second
// boot must come up with a clean, empty volume: a format cut short before
// its last barrier is formatted again, a finished one is mounted.
func TestFormatKilledAtEveryWrite(t *testing.T) {
	cfg := Config{DiskBlocks: 256, EFS: efs.Options{JournalBlocks: 16, DirBuckets: 4, CacheBlocks: 8}}
	// Format on this geometry: six 15 ms writes (four buckets, the bitmap,
	// the journal header), a 5 ms barrier, the superblock, a barrier.
	const formatEnds = 115 * time.Millisecond

	var wantFree int
	reformatted, mounted := 0, 0
	for i, at := 0, time.Millisecond; at <= formatEnds+10*time.Millisecond; i, at = i+1, at+2500*time.Microsecond {
		var hook disk.CrashHook // nil: every unsynced write is lost
		switch i % 3 {
		case 1:
			hook = keepAll{}
		case 2:
			hook = &chaosHook{rng: rand.New(rand.NewSource(int64(i))), trace: &strings.Builder{}}
		}
		rt := sim.NewVirtual()
		net := msg.NewNetwork(rt, msg.DefaultConfig())
		first, err := StartNode(rt, net, 1, cfg, nil)
		if err != nil {
			t.Fatalf("StartNode: %v", err)
		}
		first.Disk.SetCrashHook(hook)
		rt.Go("crasher", func(p sim.Proc) {
			p.Sleep(at)
			first.Crash(p.Now())
		})
		if err := rt.Wait(); err != nil {
			t.Fatalf("kill at %v: sim: %v", at, err)
		}
		d := first.Disk
		d.Restore()

		rt = sim.NewVirtual()
		net = msg.NewNetwork(rt, msg.DefaultConfig())
		node, err := StartNode(rt, net, 1, cfg, d)
		if err != nil {
			t.Fatalf("kill at %v: second boot: %v", at, err)
		}
		rt.Go("check", func(p sim.Proc) {
			defer node.Stop()
			cc := &chaosClient{c: NewClient(p, net, 0, "check"), node: node.ID}
			rep, fresh, ok := cc.recovery()
			switch {
			case fresh:
				reformatted++
			case ok && rep.Journaled && rep.Clean() && rep.Fsck.Files == 0:
				mounted++
			default:
				t.Errorf("kill at %v: second boot: recovery %+v (refused: %v)", at, rep, cc.refused)
				return
			}
			b, ok := cc.call(CheckReq{})
			if !ok {
				t.Errorf("kill at %v: fsck: node down (%v)", at, cc.refused)
				return
			}
			if ck := b.(CheckResp); Err(ck.Status) != nil || !ck.Report.OK() || ck.Report.Files != 0 {
				t.Errorf("kill at %v: fsck of the second boot: %v %+v", at, Err(ck.Status), ck.Report)
			}
			b, ok = cc.call(UsageReq{})
			if !ok {
				t.Errorf("kill at %v: usage: node down", at)
				return
			}
			if wantFree == 0 {
				wantFree = b.(UsageResp).FreeBlocks
			} else if got := b.(UsageResp).FreeBlocks; got != wantFree {
				t.Errorf("kill at %v: %d free blocks, want %d", at, got, wantFree)
			}
		})
		if err := rt.Wait(); err != nil {
			t.Fatalf("kill at %v: second boot: sim: %v", at, err)
		}
	}
	if reformatted == 0 || mounted == 0 {
		t.Errorf("%d boots formatted again and %d mounted; the sweep must reach both", reformatted, mounted)
	}
}

// keepAll is a crash hook under which every unsynced write survives.
type keepAll struct{}

func (keepAll) OnCrash(time.Duration, string, []int) disk.CrashOutcome {
	return disk.CrashOutcome{Keep: 1 << 30}
}

// TestHeldTailsLiveFsckAndKill: a journaled node's files end in held tails
// — runs and single appends onto a committed file and onto new ones, a held
// tail overwritten, a file deleted with its tail held — and fsck and a full
// scrub of the live volume find nothing. Then the node is killed, before
// or after a Sync: the remount is clean and holds exactly what the last
// acknowledged Sync committed.
func TestHeldTailsLiveFsckAndKill(t *testing.T) {
	for _, syncLast := range []bool{false, true} {
		rt := sim.NewVirtual()
		net := msg.NewNetwork(rt, msg.DefaultConfig())
		cfg := Config{DiskBlocks: 1024, EFS: efs.Options{JournalBlocks: 32, CacheBlocks: 16}}
		node, err := StartNode(rt, net, 1, cfg, nil)
		if err != nil {
			t.Fatalf("StartNode: %v", err)
		}
		rt.Go("client", func(p sim.Proc) {
			defer node.Stop()
			cc := &chaosClient{c: NewClient(p, net, 0, "cli"), node: node.ID}
			blk := func(b byte) []byte { return bytes.Repeat([]byte{b}, 50+int(b)) }
			model := map[uint32][][]byte{1: {blk(1), blk(2), blk(3)}}
			ok := cc.create(1) && cc.appendRun(1, 0, model[1]) && cc.sync()
			sealed := map[uint32][][]byte{1: model[1]}
			model[1] = append(model[1], blk(4), blk(5), blk(6))
			model[2] = [][]byte{blk(7), blk(8)}
			ok = ok && cc.appendRun(1, 3, model[1][3:5]) && cc.write(1, 5, blk(6)) &&
				cc.write(1, 5, blk(9)) && // the held tail
				cc.create(2) && cc.appendRun(2, 0, model[2]) &&
				cc.create(3) && cc.appendRun(3, 0, [][]byte{blk(10), blk(11)}) && cc.delete(3)
			model[1][5] = blk(9)
			if !ok {
				t.Errorf("syncLast %v: workload failed (%v)", syncLast, cc.refused)
				return
			}
			b, ok := cc.call(CheckReq{})
			if ck := b.(CheckResp); !ok || Err(ck.Status) != nil || !ck.Report.OK() || ck.Report.ChainBlocks != 8 {
				t.Errorf("syncLast %v: live fsck with held tails: %v %+v", syncLast, Err(ck.Status), ck.Report)
			}
			b, ok = cc.call(ScrubReq{Full: true})
			if sc := b.(ScrubResp); !ok || Err(sc.Status) != nil || len(sc.Report.Errors) != 0 {
				t.Errorf("syncLast %v: live scrub with held tails: %v %+v", syncLast, Err(sc.Status), sc.Report.Errors)
			}
			if syncLast {
				if !cc.sync() {
					t.Errorf("Sync failed")
					return
				}
				sealed = model
			}
			node.Crash(p.Now())
			node.Restart(rt)

			cc = &chaosClient{c: NewClient(p, net, 0, "after"), node: node.ID}
			if rep, _, ok := cc.recovery(); !ok || !rep.Journaled || !rep.Clean() {
				t.Errorf("syncLast %v: recovery %+v", syncLast, rep)
				return
			}
			for f := uint32(1); f <= 3; f++ {
				b, ok := cc.call(StatReq{FileID: f})
				st := b.(StatResp)
				if want, exists := sealed[f]; !ok || (exists && (Err(st.Status) != nil || st.Info.Blocks != len(want))) || (!exists && Err(st.Status) == nil) {
					t.Errorf("syncLast %v: file %d after the kill: %+v %v, want %d blocks", syncLast, f, st.Info, Err(st.Status), len(sealed[f]))
					continue
				}
				for bn, want := range sealed[f] {
					if got, ok := cc.read(f, uint32(bn)); !ok || !bytes.Equal(got, want) {
						t.Errorf("syncLast %v: file %d block %d differs after the kill", syncLast, f, bn)
					}
				}
			}
		})
		if err := rt.Wait(); err != nil {
			t.Fatalf("sim: %v", err)
		}
	}
}
