package efs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/sim"
)

// writeLog is a disk.FaultHook that records the block number of every write,
// in order, and injects nothing.
type writeLog struct{ bns *[]int }

func (w writeLog) BeforeOp(_ time.Duration, _ string, op disk.Op, bn int) (time.Duration, error) {
	if op == disk.OpWrite {
		*w.bns = append(*w.bns, bn)
	}
	return 0, nil
}

// dataWrites counts the writes in bns that land in the data region.
func dataWrites(fs *FS, bns []int) int {
	n := 0
	for _, bn := range bns {
		if bn >= int(fs.sb.DataStart) && bn < int(fs.dataEnd()) {
			n++
		}
	}
	return n
}

// runOf returns k distinct blocks of data seeded by b.
func runOf(k int, b byte) [][]byte {
	run := make([][]byte, k)
	for i := range run {
		run[i] = fill(b+byte(i), 40+i)
	}
	return run
}

// TestJournaledAppendWritesEachBlockOnce pins the append's device cost. On a
// journaled volume appends of k blocks — runs, and single WriteBlock appends
// as runs of one — cost k data writes each, the first one k-1: the run's
// tail is held until the next append sets its link, and the last tail is
// written by the Sync, before its barrier. There is no link-fix record and
// no commit before the Sync. An unjournaled volume still writes k+1 blocks
// per append (k for the first): the new blocks, then the old tail's pointer.
// (TestAppendRunWritesATrackAtATime counts the accesses those writes take.)
func TestJournaledAppendWritesEachBlockOnce(t *testing.T) {
	sizes := []int{4, 4, 4, 4, 1, 1, 1}
	total := 0
	for _, k := range sizes {
		total += k
	}
	for _, journaled := range []bool{true, false} {
		opts := Options{DirBuckets: 4, CacheBlocks: 8}
		if journaled {
			opts.JournalBlocks = 32
		}
		d := disk.New(disk.Config{NumBlocks: 1024, Timing: disk.FixedTiming{}, WriteBack: journaled})
		var bns []int
		run(t, func(p sim.Proc) {
			fs, err := Format(p, d, opts)
			if err != nil {
				t.Fatalf("Format: %v", err)
			}
			// Commit the file's entry first: the appends are what is measured.
			if err := fs.Create(p, 1); err != nil {
				t.Fatalf("Create: %v", err)
			}
			if err := fs.Sync(p); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			syncs0 := d.Stats().Get("disk.syncs")
			var commits0 int64
			if journaled {
				commits0 = fs.jnl.m.commits.Value()
			}
			d.SetFault(writeLog{&bns}, "d")
			size := uint32(0)
			for i, k := range sizes {
				before := len(bns)
				if k == 1 {
					_, err = fs.WriteBlock(p, 1, size, fill(byte(i), 30), -1)
				} else {
					_, err = fs.AppendRun(p, 1, size, nil, runOf(k, byte(16*i)))
				}
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				size += uint32(k)
				want := k + 1
				if journaled {
					want = k
				}
				if i == 0 {
					want-- // no old tail
				}
				if got := dataWrites(fs, bns[before:]); got != want || got != len(bns)-before {
					t.Errorf("journaled %v: append %d of %d blocks cost %d data writes (%d in all), want %d",
						journaled, i, k, got, len(bns)-before, want)
				}
			}
			if !journaled {
				return
			}
			info, _ := fs.Stat(p, 1)
			if got := d.Stats().Get("disk.syncs") - syncs0; got != 0 {
				t.Errorf("appends issued %d barriers, want 0", got)
			}
			if got := fs.jnl.m.commits.Value() - commits0; got != 0 {
				t.Errorf("appends triggered %d commits, want 0", got)
			}
			if !fs.jnl.held[info.Last] || len(fs.jnl.held) != 1 || len(fs.jnl.fixes) != 0 {
				t.Errorf("before Sync: held %v, fixes %v; want only the tail %d held", fs.jnl.held, fs.jnl.fixes, info.Last)
			}
			before := len(bns)
			if err := fs.Sync(p); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if bns[before] != int(info.Last) {
				t.Errorf("Sync wrote block %d first, want the held tail %d", bns[before], info.Last)
			}
			if got := dataWrites(fs, bns); got != total {
				t.Errorf("%d blocks appended cost %d data writes, want %d", total, got, total)
			}
			if got := fs.jnl.m.linkFixes.Value(); got != 0 {
				t.Errorf("journal holds %d link-fix records, want 0", got)
			}
			// The held tail went down before the barrier, so it is stable
			// now; the commit's home writes, issued after it, are not.
			stable := d.PeekStable(int(info.Last))
			if stable == nil || !sumOK(info.Last, stable, dataSumOff) || decodeHeader(stable).Next != info.First {
				t.Errorf("held tail %d is not stable with its wrap link after Sync", info.Last)
			}
		})
	}
}

// TestHeldTailOverwriteAndDelete: an overwrite of a held tail replaces the
// held image — no write, no journal image — and a delete drops the held
// tail, which is then never written at all.
func TestHeldTailOverwriteAndDelete(t *testing.T) {
	d := disk.New(disk.Config{NumBlocks: 1024, Timing: disk.FixedTiming{}, WriteBack: true})
	var bns []int
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, journalTestOpts)
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		free := fs.FreeBlocks()
		for f := uint32(1); f <= 2; f++ {
			if err := fs.Create(p, f); err != nil {
				t.Fatalf("Create: %v", err)
			}
			if _, err := fs.AppendRun(p, f, 0, nil, runOf(3, byte(16*f))); err != nil {
				t.Fatalf("AppendRun: %v", err)
			}
		}
		one, _ := fs.Stat(p, 1)
		two, _ := fs.Stat(p, 2)
		d.SetFault(writeLog{&bns}, "d")

		want := fill(0xee, 77)
		if _, err := fs.WriteBlock(p, 1, 2, want, -1); err != nil {
			t.Fatalf("overwrite of the held tail: %v", err)
		}
		if len(bns) != 0 || !fs.jnl.held[one.Last] || fs.jnl.img[one.Last] {
			t.Errorf("overwrite of a held tail: %d writes, held %v, journaled image %v; want 0, true, false",
				len(bns), fs.jnl.held[one.Last], fs.jnl.img[one.Last])
		}
		if got, _, err := fs.ReadBlock(p, 1, 2, -1); err != nil || !bytes.Equal(got, want) {
			t.Errorf("read of the overwritten held tail: %v", err)
		}

		if _, err := fs.Delete(p, 2); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if fs.deferred(two.Last) {
			t.Error("a deleted file's held tail is still held")
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		for _, bn := range bns {
			if bn == int(two.Last) {
				t.Errorf("the deleted file's held tail %d was written", bn)
			}
		}
		if fs.jnl.logged[one.Last] {
			t.Error("the overwritten held tail was journaled")
		}
		if got := fs.FreeBlocks(); got != free-3 {
			t.Errorf("FreeBlocks %d, want %d", got, free-3)
		}
		if rep, err := fs.Check(p); err != nil || !rep.OK() {
			t.Errorf("fsck: %v %v", err, rep.Problems)
		}
		fs2, err := Mount(p, d, Options{CacheBlocks: 8})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		if got, _, err := fs2.ReadBlock(p, 1, 2, -1); err != nil || !bytes.Equal(got, want) {
			t.Errorf("remounted read of the overwritten tail: %v", err)
		}
		if _, err := fs2.Stat(p, 2); !errors.Is(err, ErrNotFound) {
			t.Errorf("deleted file after remount: %v", err)
		}
	})
}

// TestScrubAndCheckSeeHeldTails runs fsck, a full scrub and a repair on a
// live volume whose files' tails are held — fresh files, a committed file
// appended to since, a deleted file — and requires all three to find
// nothing.
func TestScrubAndCheckSeeHeldTails(t *testing.T) {
	d := disk.New(disk.Config{NumBlocks: 1024, Timing: disk.FixedTiming{}, WriteBack: true})
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, journalTestOpts)
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		blocks := 0
		for f := uint32(1); f <= 4; f++ {
			fs.Create(p, f)
			for i := 0; i < int(f); i++ {
				if _, err := fs.AppendRun(p, f, uint32(3*i), nil, runOf(3, byte(f))); err != nil {
					t.Fatalf("AppendRun: %v", err)
				}
				blocks += 3
			}
			if f == 2 {
				if err := fs.Sync(p); err != nil {
					t.Fatalf("Sync: %v", err)
				}
			}
		}
		if _, err := fs.WriteBlock(p, 1, 3, fill(1, 9), -1); err != nil {
			t.Fatalf("append onto a committed tail: %v", err)
		}
		blocks++
		// A deleted file's blocks stay allocated until the commit, and its
		// held tail was never written: the scrub must not read it.
		fs.Create(p, 5)
		if _, err := fs.AppendRun(p, 5, 0, nil, runOf(3, 5)); err != nil {
			t.Fatalf("AppendRun: %v", err)
		}
		if _, err := fs.Delete(p, 5); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		// The Sync released files 1 and 2; file 1 holds again since.
		if len(fs.jnl.held) != 3 || len(fs.jnl.fixes) != 1 {
			t.Fatalf("%d tails held and %d link fixes, want 3 and 1", len(fs.jnl.held), len(fs.jnl.fixes))
		}
		rep, err := fs.Check(p)
		if err != nil || !rep.OK() || rep.ChainBlocks != blocks {
			t.Errorf("fsck with held tails: %v, problems %v, %d chain blocks (want %d)", err, rep.Problems, rep.ChainBlocks, blocks)
		}
		srep, err := fs.ScrubAll(p)
		if err != nil || len(srep.Errors) != 0 {
			t.Errorf("scrub with held tails: %v %+v", err, srep.Errors)
		}
		if _, fixes, err := fs.Repair(p); err != nil || fixes != 0 {
			t.Errorf("repair with held tails: %d fixes, %v", fixes, err)
		}
	})
}

// heldOp is one step of TestHeldTailKilledAnywhere's workload: create,
// append n blocks at block at (n == 1 through WriteBlock), overwrite block
// at, delete, or sync.
type heldOp struct {
	kind     byte
	file, at uint32
	n        int
}

// volState is what a volume holds: each file's blocks.
type volState map[uint32][][]byte

func (s volState) clone() volState {
	c := make(volState, len(s))
	for f, b := range s {
		c[f] = append([][]byte(nil), b...)
	}
	return c
}

// runHeldOps formats d and applies ops, mirroring them in a model. states
// gets the formatted volume's state and then the model at each Sync that
// returned. It stops at the first error (a crashed device).
func runHeldOps(p sim.Proc, d *disk.Disk, ops []heldOp, states *[]volState) {
	fs, err := Format(p, d, journalTestOpts)
	if err != nil {
		return
	}
	model := volState{}
	*states = append(*states, model.clone())
	for i, op := range ops {
		data := func(j int) []byte { return fill(byte(16*i+j), 20+i+j) }
		switch op.kind {
		case 'c':
			err = fs.Create(p, op.file)
			model[op.file] = nil
		case 'a':
			run := make([][]byte, op.n)
			for j := range run {
				run[j] = data(j)
			}
			if op.n == 1 {
				_, err = fs.WriteBlock(p, op.file, op.at, run[0], -1)
			} else {
				_, err = fs.AppendRun(p, op.file, op.at, nil, run)
			}
			model[op.file] = append(model[op.file], run...)
		case 'w':
			_, err = fs.WriteBlock(p, op.file, op.at, data(0), -1)
			model[op.file][op.at] = data(0)
		case 'd':
			_, err = fs.Delete(p, op.file)
			delete(model, op.file)
		case 's':
			if err = fs.Sync(p); err == nil {
				*states = append(*states, model.clone())
			}
		}
		if err != nil {
			return
		}
	}
}

// readState lists what a mounted volume holds.
func readState(p sim.Proc, fs *FS) (volState, error) {
	ids, err := fs.ListFiles(p)
	if err != nil {
		return nil, err
	}
	s := volState{}
	for _, id := range ids {
		info, err := fs.Stat(p, id)
		if err != nil {
			return nil, err
		}
		s[id] = nil
		for bn := 0; bn < info.Blocks; bn++ {
			b, _, err := fs.ReadBlock(p, id, uint32(bn), -1)
			if err != nil {
				return nil, fmt.Errorf("file %d block %d: %w", id, bn, err)
			}
			s[id] = append(s[id], b)
		}
	}
	return s, nil
}

func sameState(a, b volState) bool {
	if len(a) != len(b) {
		return false
	}
	for f, ab := range a {
		bb, ok := b[f]
		if !ok || len(ab) != len(bb) {
			return false
		}
		for i := range ab {
			if !bytes.Equal(ab[i], bb[i]) {
				return false
			}
		}
	}
	return true
}

func (s volState) String() string {
	ids := make([]int, 0, len(s))
	for f := range s {
		ids = append(ids, int(f))
	}
	sort.Ints(ids)
	out := ""
	for _, f := range ids {
		out += fmt.Sprintf(" %d:%d", f, len(s[uint32(f)]))
	}
	return "{" + out + " }"
}

// TestHeldTailKilledAnywhere kills a journaled volume at a sweep of virtual
// times across a workload that holds a tail at nearly every step — runs and
// single appends, overwrites of held tails, appends onto committed tails,
// deletes of files whose tails are held — with two Syncs. Every recovery
// must be Fsck-clean and hold exactly what the last acknowledged Sync
// committed, or, for a kill inside the next Sync, what that Sync commits.
// A kill inside Format leaves ErrUnformatted.
func TestHeldTailKilledAnywhere(t *testing.T) {
	ops := []heldOp{
		{kind: 'c', file: 1}, {kind: 'c', file: 2}, {kind: 'c', file: 3},
		{kind: 'a', file: 1, n: 3},
		{kind: 'a', file: 2, n: 1},
		{kind: 'a', file: 3, n: 2},
		{kind: 'a', file: 2, at: 1, n: 1},
		{kind: 'w', file: 1, at: 2}, // the held tail
		{kind: 'a', file: 1, at: 3, n: 2},
		{kind: 's'},
		{kind: 'a', file: 1, at: 5, n: 2}, // onto a committed tail
		{kind: 'a', file: 2, at: 2, n: 1},
		{kind: 'a', file: 2, at: 3, n: 1},
		{kind: 'w', file: 1, at: 6}, // the held tail
		{kind: 'w', file: 1, at: 0},
		{kind: 'a', file: 3, at: 2, n: 3},
		{kind: 'd', file: 3}, // its tail held
		{kind: 'c', file: 4},
		{kind: 'a', file: 4, n: 2},
		{kind: 'd', file: 4}, // never committed
		{kind: 'a', file: 2, at: 4, n: 3},
		{kind: 's'},
	}
	cfg := disk.Config{NumBlocks: 512, Timing: disk.FixedTiming{Latency: 15 * time.Millisecond}, WriteBack: true}

	// Reference: the workload uncrashed gives every state and its length.
	var ref []volState
	rt := sim.NewVirtual()
	if err := rt.Run("ref", func(p sim.Proc) { runHeldOps(p, disk.New(cfg), ops, &ref) }); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	end := rt.Now()
	if len(ref) != 3 {
		t.Fatalf("reference run acknowledged %d states, want 3", len(ref))
	}

	// How often each outcome came up: the sweep must reach every state.
	unformatted, recovered := 0, make([]int, len(ref))
	for i, at := 0, time.Millisecond; at < end+10*time.Millisecond; i, at = i+1, at+4*time.Millisecond {
		d := disk.New(cfg)
		switch i % 3 {
		case 0:
			d.SetCrashHook(scriptHook{keep: 0})
		case 1:
			d.SetCrashHook(scriptHook{keep: 1 << 20})
		default:
			d.SetCrashHook(rngHook{rand.New(rand.NewSource(int64(i)))})
		}
		var acked []volState
		rt := sim.NewVirtual()
		rt.Go("workload", func(p sim.Proc) { runHeldOps(p, d, ops, &acked) })
		rt.Go("crasher", func(p sim.Proc) {
			p.Sleep(at)
			d.Crash(p.Now())
		})
		if err := rt.Wait(); err != nil {
			t.Fatalf("kill at %v: sim: %v", at, err)
		}
		d.Restore()
		d.SetCrashHook(nil)
		n := len(acked) // states 0..n-1 acknowledged
		run(t, func(p sim.Proc) {
			fs, err := Mount(p, d, Options{CacheBlocks: 8})
			if errors.Is(err, ErrUnformatted) && n == 0 {
				unformatted++
				return
			}
			if err != nil {
				t.Fatalf("kill at %v: Mount: %v", at, err)
			}
			if rep, err := fs.Check(p); err != nil || !rep.OK() {
				t.Errorf("kill at %v: fsck: %v %v", at, err, rep.Problems)
			}
			got, err := readState(p, fs)
			if err != nil {
				t.Errorf("kill at %v: reading the recovered volume: %v", at, err)
				return
			}
			switch last := max(n-1, 0); {
			case sameState(got, ref[last]):
				recovered[last]++
			case n < len(ref) && sameState(got, ref[n]):
				recovered[n]++
			default:
				t.Errorf("kill at %v after %d acknowledged states: recovered %v, want %v or the next state", at, n, got, ref[last])
			}
		})
	}
	if unformatted == 0 || slices.Contains(recovered, 0) {
		t.Errorf("sweep left outcomes unexercised: %d unformatted, states recovered %v", unformatted, recovered)
	}
}
