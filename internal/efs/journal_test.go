package efs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"bridge/internal/disk"
	"bridge/internal/sim"
)

// scriptHook is a deterministic disk.CrashHook for scripted crashes: every
// crash keeps the first Keep unsynced writes and tears TornBytes of the
// next one.
type scriptHook struct {
	keep, torn int
}

func (h scriptHook) OnCrash(now time.Duration, label string, pending []int) disk.CrashOutcome {
	return disk.CrashOutcome{Keep: h.keep, TornBytes: h.torn}
}

// rngHook loses a random suffix of the unsynced writes, sometimes tearing
// the first lost block — the kill-9 model the fault injector uses, but
// seeded per test case.
type rngHook struct{ rng *rand.Rand }

func (h rngHook) OnCrash(now time.Duration, label string, pending []int) disk.CrashOutcome {
	out := disk.CrashOutcome{Keep: h.rng.Intn(len(pending) + 1)}
	if out.Keep < len(pending) && h.rng.Intn(2) == 0 {
		out.TornBytes = 1 + h.rng.Intn(BlockSize-1)
	}
	return out
}

var journalTestOpts = Options{JournalBlocks: 32, DirBuckets: 4, CacheBlocks: 8}

// cloneDisk copies a device's stable contents onto a fresh device with the
// same configuration, so several mounts can replay the same crashed image
// independently. Never-written blocks stay never-written on the clone.
func cloneDisk(t *testing.T, src *disk.Disk) *disk.Disk {
	t.Helper()
	d := disk.New(src.Config())
	run(t, func(p sim.Proc) {
		for bn := 0; bn < src.Config().NumBlocks; bn++ {
			if b := src.PeekStable(bn); b != nil {
				if err := d.WriteBlock(p, bn, b); err != nil {
					t.Fatalf("cloning block %d: %v", bn, err)
				}
			}
		}
		if err := d.Sync(p); err != nil {
			t.Fatalf("cloning: %v", err)
		}
	})
	return d
}

// stableBytes flattens the stable (synced) images of blocks [lo, hi) into
// one comparable byte string; never-written blocks are marked distinctly
// from written-as-zero blocks.
func stableBytes(d *disk.Disk, lo, hi int) []byte {
	out := make([]byte, 0, (hi-lo)*(BlockSize+1))
	for bn := lo; bn < hi; bn++ {
		b := d.PeekStable(bn)
		if b == nil {
			out = append(out, 0)
			out = append(out, make([]byte, BlockSize)...)
			continue
		}
		out = append(out, 1)
		out = append(out, b...)
	}
	return out
}

// crashedVolume formats a journaled volume on a write-back device, runs a
// workload touching every metadata structure (directory buckets, chain
// links, the bitmap, data blocks), commits it, and crashes the device so
// that most home-location writes of the final commit are lost — the state
// only the journal's intent records can reconstruct. Returns the crashed
// device and the committed contents every recovery must reproduce.
func crashedVolume(t *testing.T, cfg disk.Config, hook disk.CrashHook) (*disk.Disk, map[uint32][][]byte) {
	t.Helper()
	d := disk.New(cfg)
	d.SetCrashHook(hook)
	want := make(map[uint32][][]byte)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, journalTestOpts)
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		for f := uint32(1); f <= 3; f++ {
			if err := fs.Create(p, f); err != nil {
				t.Fatalf("Create %d: %v", f, err)
			}
			for b := uint32(0); b < 5; b++ {
				data := fill(byte(16*f+b), 64+int(b))
				if _, err := fs.WriteBlock(p, f, b, data, -1); err != nil {
					t.Fatalf("WriteBlock %d/%d: %v", f, b, err)
				}
				want[f] = append(want[f], data)
			}
		}
		// A delete makes the commit carry deferred bitmap frees too.
		if _, err := fs.Delete(p, 2); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		delete(want, 2)
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	})
	// fs.Sync logged the intent records and forced them down, then issued
	// the home writes without a trailing barrier — so at this instant the
	// records are durable and the home locations are not. The hook decides
	// which home writes survive.
	d.Crash(0)
	d.Restore()
	return d, want
}

// verifyRecovered mounts a recovered volume and checks the committed state
// survived: replay ran, fsck is clean, and every committed file reads back
// byte-exact. Returns the replay stats.
func verifyRecovered(t *testing.T, d *disk.Disk, want map[uint32][][]byte) *ReplayStats {
	t.Helper()
	var st *ReplayStats
	run(t, func(p sim.Proc) {
		fs, err := Mount(p, d, Options{CacheBlocks: 8})
		if err != nil {
			t.Fatalf("Mount after crash: %v", err)
		}
		if !fs.Journaled() {
			t.Fatal("volume lost its journal across the crash")
		}
		st = fs.LastReplay()
		rep, err := fs.Check(p)
		if err != nil {
			t.Fatalf("Check after replay: %v", err)
		}
		if !rep.OK() {
			t.Fatalf("Check problems after replay: %v", rep.Problems)
		}
		ids, err := fs.ListFiles(p)
		if err != nil {
			t.Fatalf("ListFiles: %v", err)
		}
		if len(ids) != len(want) {
			t.Errorf("recovered volume lists %d files, want %d", len(ids), len(want))
		}
		for f, blocks := range want {
			for bn, wantData := range blocks {
				got, _, err := fs.ReadBlock(p, f, uint32(bn), -1)
				if err != nil {
					t.Fatalf("ReadBlock %d/%d after recovery: %v", f, bn, err)
				}
				if !bytes.Equal(got, wantData) {
					t.Errorf("file %d block %d differs after recovery", f, bn)
				}
			}
		}
	})
	return st
}

// TestJournalReplayIdempotent mounts two independent copies of the same
// crashed image: both replays must converge on byte-identical devices, and
// replaying a second time (remounting the already-recovered volume) must
// not change the data region.
func TestJournalReplayIdempotent(t *testing.T) {
	cfg := disk.Config{NumBlocks: 2048, Timing: disk.FixedTiming{}, WriteBack: true}
	// Keep one home write and tear the next: replay must both finish the
	// apply and repair the torn block from its journaled image.
	d, want := crashedVolume(t, cfg, scriptHook{keep: 1, torn: 700})

	a := cloneDisk(t, d)
	b := cloneDisk(t, d)
	stA := verifyRecovered(t, a, want)
	stB := verifyRecovered(t, b, want)
	if stA == nil || stA.Entries == 0 {
		t.Fatalf("replay applied no entries (stats %+v); the crash scenario is vacuous", stA)
	}
	if stB == nil || *stA != *stB {
		t.Errorf("replay stats diverge across identical images:\n a: %+v\n b: %+v", stA, stB)
	}
	if !bytes.Equal(stableBytes(a, 0, cfg.NumBlocks), stableBytes(b, 0, cfg.NumBlocks)) {
		t.Error("two replays of the same crashed image produced different device bytes")
	}

	// Replay twice: the first mount checkpointed, so a second mount must
	// find nothing live and leave the data region untouched.
	dataEnd := cfg.NumBlocks - journalTestOpts.JournalBlocks
	before := stableBytes(a, 0, dataEnd)
	st2 := verifyRecovered(t, a, want)
	if st2 != nil && st2.Entries > 0 {
		t.Errorf("second replay re-applied %d entries; checkpoint did not retire them", st2.Entries)
	}
	if !bytes.Equal(before, stableBytes(a, 0, dataEnd)) {
		t.Error("remounting a recovered volume changed the data region")
	}
}

// TestJournalCrashMidReplay kills the device at a sweep of virtual times
// during recovery itself — including mid-journal-scan, mid-apply, and
// mid-checkpoint — and requires the next recovery to converge on exactly
// the state a single uninterrupted replay produces.
func TestJournalCrashMidReplay(t *testing.T) {
	cfg := disk.Config{
		NumBlocks: 512,
		Timing:    disk.FixedTiming{Latency: 15 * time.Millisecond},
		WriteBack: true,
	}
	d, want := crashedVolume(t, cfg, scriptHook{keep: 0, torn: 300})
	dataEnd := cfg.NumBlocks - journalTestOpts.JournalBlocks

	// Reference: one clean replay of the crashed image.
	ref := cloneDisk(t, d)
	if st := verifyRecovered(t, ref, want); st == nil || st.Entries == 0 {
		t.Fatalf("reference replay applied no entries (stats %+v)", st)
	}
	refBytes := stableBytes(ref, 0, dataEnd)

	// Every disk access costs 15ms, so crash times stepped finer than one
	// access sweep every replay phase; late steps land after the mount
	// finishes, which must be harmless.
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 16 * time.Millisecond
		dc := cloneDisk(t, d)
		dc.SetCrashHook(scriptHook{keep: i % 3, torn: (i % 2) * 650})
		rt := sim.NewVirtual()
		rt.Go("mounter", func(p sim.Proc) {
			// The crash makes this mount fail partway through; the error
			// is the point of the test.
			_, _ = Mount(p, dc, Options{CacheBlocks: 8})
		})
		rt.Go("crasher", func(p sim.Proc) {
			p.Sleep(at)
			dc.Crash(p.Now())
		})
		if err := rt.Wait(); err != nil {
			t.Fatalf("crash at %v: sim: %v", at, err)
		}
		dc.Restore()
		dc.SetCrashHook(nil)
		verifyRecovered(t, dc, want)
		if !bytes.Equal(refBytes, stableBytes(dc, 0, dataEnd)) {
			t.Fatalf("crash at %v during replay: recovered data region differs from a clean replay", at)
		}
	}
}

// TestQuickCrashRecovery drives randomized operation sequences with group
// commits at random points, crashes at the final sync boundary with a
// seeded kill-9 outcome (random surviving prefix, sometimes a torn block),
// and checks the recovery contract: everything committed by the last Sync
// reads back byte-exact, the uncommitted tail never corrupts the volume,
// and fsck comes up clean.
func TestQuickCrashRecovery(t *testing.T) {
	f := func(seed int64) bool {
		return quickCrashCase(t, seed, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func quickCrashCase(t *testing.T, seed int64, verbose bool) bool {
	{
		rng := rand.New(rand.NewSource(seed))
		cfg := disk.Config{NumBlocks: 1024, Timing: disk.FixedTiming{}, WriteBack: true}
		d := disk.New(cfg)
		d.SetCrashHook(rngHook{rng})
		ok := true
		fail := func(format string, args ...any) {
			t.Logf(format, args...)
			ok = false
		}
		sealed := make(map[uint32][][]byte)
		rt := sim.NewVirtual()
		err := rt.Run("workload", func(p sim.Proc) {
			fs, err := Format(p, d, journalTestOpts)
			if err != nil {
				fail("Format: %v", err)
				return
			}
			model := make(map[uint32][][]byte)
			nOps := 40 + rng.Intn(80)
			for i := 0; i < nOps; i++ {
				file := uint32(rng.Intn(6))
				switch rng.Intn(9) {
				case 8:
					blocks, exists := model[file]
					if !exists {
						continue
					}
					run := make([][]byte, 2+rng.Intn(3))
					for j := range run {
						run[j] = fill(byte(rng.Intn(256)), 1+rng.Intn(200))
					}
					if _, err := fs.AppendRun(p, file, uint32(len(blocks)), nil, run); err != nil {
						fail("op %d: append run %d/%d: %v", i, file, len(blocks), err)
						return
					}
					if verbose {
						t.Logf("op %d: append run %d/%d+%d", i, file, len(blocks), len(run))
					}
					model[file] = append(blocks, run...)
				case 0, 1:
					if _, exists := model[file]; exists {
						continue
					}
					if err := fs.Create(p, file); err != nil {
						fail("op %d: create %d: %v", i, file, err)
						return
					}
					if verbose {
						t.Logf("op %d: create %d", i, file)
					}
					model[file] = nil
				case 2, 3, 4:
					blocks, exists := model[file]
					if !exists {
						continue
					}
					bn := uint32(rng.Intn(len(blocks) + 1))
					data := fill(byte(rng.Intn(256)), 1+rng.Intn(200))
					addr, err := fs.WriteBlock(p, file, bn, data, -1)
					if err != nil {
						fail("op %d: write %d/%d: %v", i, file, bn, err)
						return
					}
					if verbose {
						t.Logf("op %d: write %d/%d at addr %d fill %d len %d", i, file, bn, addr, data[0], len(data))
					}
					if int(bn) == len(blocks) {
						model[file] = append(blocks, data)
					} else {
						blocks[bn] = data
					}
				case 5:
					if _, exists := model[file]; !exists {
						continue
					}
					if _, err := fs.Delete(p, file); err != nil {
						fail("op %d: delete %d: %v", i, file, err)
						return
					}
					if verbose {
						t.Logf("op %d: delete %d", i, file)
					}
					delete(model, file)
				default:
					if err := fs.Sync(p); err != nil {
						fail("op %d: sync: %v", i, err)
						return
					}
					if verbose {
						t.Logf("op %d: sync", i)
					}
				}
			}
			// The final Sync seals the model: its contents are the
			// committed state recovery must reproduce.
			if err := fs.Sync(p); err != nil {
				fail("final sync: %v", err)
				return
			}
			for f, blocks := range model {
				sealed[f] = append([][]byte(nil), blocks...)
			}
			// Uncommitted tail, never synced: appends onto sealed files —
			// their committed tails go through link fixes, the new ones are
			// held — and ops on fresh file ids, so the sealed blocks' fate is
			// unambiguous after the crash.
			ids := make([]uint32, 0, len(sealed))
			for f := range sealed {
				ids = append(ids, f)
			}
			slices.Sort(ids)
			for _, f := range ids {
				blocks := sealed[f]
				if rng.Intn(2) == 0 {
					continue
				}
				if _, err := fs.AppendRun(p, f, uint32(len(blocks)), nil, [][]byte{fill(byte(f), 60), fill(byte(f), 61)}); err != nil {
					fail("tail append run %d: %v", f, err)
					return
				}
				if _, err := fs.WriteBlock(p, f, uint32(len(blocks)+2), fill(byte(f), 62), -1); err != nil {
					fail("tail append %d: %v", f, err)
					return
				}
			}
			for f := uint32(100); f < 103; f++ {
				if err := fs.Create(p, f); err != nil {
					fail("tail create %d: %v", f, err)
					return
				}
				for b := 0; b < rng.Intn(4); b++ {
					if _, err := fs.WriteBlock(p, f, uint32(b), fill(byte(f), 50), -1); err != nil {
						fail("tail write %d/%d: %v", f, b, err)
						return
					}
				}
			}
		})
		if err != nil || !ok {
			fail("workload sim: %v", err)
			return false
		}

		d.Crash(0)
		d.Restore()

		err = rt.Run("recover", func(p sim.Proc) {
			fs, err := Mount(p, d, Options{CacheBlocks: 8})
			if err != nil {
				fail("Mount after crash: %v", err)
				return
			}
			rep, err := fs.Check(p)
			if err != nil {
				fail("Check: %v", err)
				return
			}
			if !rep.OK() {
				fail("Check problems after crash recovery: %v", rep.Problems)
				return
			}
			for f, blocks := range sealed {
				for bn, wantData := range blocks {
					got, addr, err := fs.ReadBlock(p, f, uint32(bn), -1)
					if err != nil || !bytes.Equal(got, wantData) {
						var g0 byte
						if len(got) > 0 {
							g0 = got[0]
						}
						fail("sealed file %d block %d at addr %d: err %v, got fill %d len %d, want fill %d len %d (replay %+v)",
							f, bn, addr, err, g0, len(got), wantData[0], len(wantData), fs.LastReplay())
						return
					}
				}
			}
			// Files from the uncommitted tail may or may not have survived,
			// but whatever the directory lists must be fully readable.
			ids, err := fs.ListFiles(p)
			if err != nil {
				fail("ListFiles: %v", err)
				return
			}
			for _, id := range ids {
				info, err := fs.Stat(p, id)
				if err != nil {
					fail("Stat %d: %v", id, err)
					return
				}
				for bn := 0; bn < info.Blocks; bn++ {
					if _, _, err := fs.ReadBlock(p, id, uint32(bn), -1); err != nil {
						fail("surviving file %d block %d unreadable: %v", id, bn, err)
						return
					}
				}
			}
		})
		if err != nil {
			fail("recovery sim: %v", err)
		}
		return ok
	}
}
