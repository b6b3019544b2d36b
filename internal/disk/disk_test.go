package disk

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"bridge/internal/israce"
	"bridge/internal/sim"
)

func testDisk(nblocks int) *Disk {
	return New(Config{NumBlocks: nblocks, Timing: FixedTiming{Latency: 15 * time.Millisecond}})
}

// run executes fn as a single simulated process and fails on runtime error.
func run(t *testing.T, fn func(p sim.Proc)) {
	t.Helper()
	rt := sim.NewVirtual()
	if err := rt.Run("test", fn); err != nil {
		t.Fatalf("sim run: %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := testDisk(16)
	run(t, func(p sim.Proc) {
		data := bytes.Repeat([]byte{0xAB}, 1024)
		if err := d.WriteBlock(p, 3, data); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
		got, err := d.ReadBlock(p, 3)
		if err != nil {
			t.Fatalf("ReadBlock: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("read data differs from written data")
		}
	})
}

func TestUnwrittenBlockReadsZero(t *testing.T) {
	d := testDisk(4)
	run(t, func(p sim.Proc) {
		got, err := d.ReadBlock(p, 2)
		if err != nil {
			t.Fatalf("ReadBlock: %v", err)
		}
		if !bytes.Equal(got, make([]byte, 1024)) {
			t.Error("unwritten block is not zero")
		}
	})
}

func TestAccessChargesTime(t *testing.T) {
	d := testDisk(8)
	run(t, func(p sim.Proc) {
		d.ReadBlock(p, 0)
		if p.Now() != 15*time.Millisecond {
			t.Errorf("after one read Now = %v, want 15ms", p.Now())
		}
		d.WriteBlock(p, 1, make([]byte, 1024))
		if p.Now() != 30*time.Millisecond {
			t.Errorf("after read+write Now = %v, want 30ms", p.Now())
		}
	})
	if busy := d.Stats().GetTime("disk.busy"); busy != 30*time.Millisecond {
		t.Errorf("disk.busy = %v, want 30ms", busy)
	}
	if ops := d.Stats().Get("disk.ops"); ops != 2 {
		t.Errorf("disk.ops = %d, want 2", ops)
	}
}

func TestReadTrackSingleCharge(t *testing.T) {
	d := New(Config{NumBlocks: 32, BlocksPerTrack: 8, Timing: FixedTiming{Latency: 15 * time.Millisecond}})
	run(t, func(p sim.Proc) {
		for i := 8; i < 16; i++ {
			data := bytes.Repeat([]byte{byte(i)}, 1024)
			d.WriteBlock(p, i, data)
		}
		start := p.Now()
		var bns []int
		err := d.ReadTrack(p, 11, func(bn int, img []byte) {
			bns = append(bns, bn)
			if img[0] != byte(bn) {
				t.Errorf("track block %d has wrong contents", bn)
			}
		})
		if err != nil {
			t.Fatalf("ReadTrack: %v", err)
		}
		if len(bns) != 8 || bns[0] != 8 || bns[7] != 15 {
			t.Fatalf("ReadTrack handed out blocks %v, want 8..15", bns)
		}
		if d := p.Now() - start; d != 15*time.Millisecond {
			t.Errorf("track read charged %v, want one access (15ms)", d)
		}
	})
}

func TestReadTrackPartialAtEnd(t *testing.T) {
	d := New(Config{NumBlocks: 12, BlocksPerTrack: 8, Timing: FixedTiming{}})
	run(t, func(p sim.Proc) {
		var bns []int
		err := d.ReadTrack(p, 10, func(bn int, img []byte) {
			bns = append(bns, bn)
			if len(img) != 1024 || img[0] != 0 {
				t.Errorf("never-written block %d reads as %d bytes, first %d", bn, len(img), img[0])
			}
		})
		if err != nil {
			t.Fatalf("ReadTrack: %v", err)
		}
		if len(bns) != 4 || bns[0] != 8 {
			t.Errorf("ReadTrack handed out blocks %v, want 8..11", bns)
		}
	})
}

func TestOutOfRange(t *testing.T) {
	d := testDisk(4)
	run(t, func(p sim.Proc) {
		if _, err := d.ReadBlock(p, 4); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadBlock(4) = %v, want ErrOutOfRange", err)
		}
		if _, err := d.ReadBlock(p, -1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadBlock(-1) = %v, want ErrOutOfRange", err)
		}
		if err := d.WriteBlock(p, 99, make([]byte, 1024)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("WriteBlock(99) = %v, want ErrOutOfRange", err)
		}
	})
}

func TestBadWriteSize(t *testing.T) {
	d := testDisk(4)
	run(t, func(p sim.Proc) {
		if err := d.WriteBlock(p, 0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
			t.Errorf("short write = %v, want ErrBadSize", err)
		}
	})
}

func TestFailedDevice(t *testing.T) {
	d := testDisk(4)
	d.Fail()
	run(t, func(p sim.Proc) {
		if _, err := d.ReadBlock(p, 0); !errors.Is(err, ErrFailed) {
			t.Errorf("read on failed disk = %v, want ErrFailed", err)
		}
		if err := d.WriteBlock(p, 0, make([]byte, 1024)); !errors.Is(err, ErrFailed) {
			t.Errorf("write on failed disk = %v, want ErrFailed", err)
		}
	})
	if !d.Failed() {
		t.Error("Failed() = false after Fail()")
	}
}

func TestWriteIsolation(t *testing.T) {
	// Mutating the caller's buffer after a write must not change the disk.
	d := testDisk(4)
	run(t, func(p sim.Proc) {
		buf := make([]byte, 1024)
		buf[0] = 1
		d.WriteBlock(p, 0, buf)
		buf[0] = 99
		got, _ := d.ReadBlock(p, 0)
		if got[0] != 1 {
			t.Error("disk shares memory with caller's write buffer")
		}
		// And mutating a read result must not change the disk.
		got[0] = 77
		again, _ := d.ReadBlock(p, 0)
		if again[0] != 1 {
			t.Error("disk shares memory with caller's read buffer")
		}
	})
}

func TestSeekRotateTimingMonotoneInDistance(t *testing.T) {
	m := WrenSeekRotate()
	cfg := Config{BlockSize: 1024, NumBlocks: 10000, BlocksPerTrack: 8}
	near := m.Access(OpRead, 0, 8, 1, cfg)
	far := m.Access(OpRead, 0, 8000, 1, cfg)
	if near >= far {
		t.Errorf("near seek %v >= far seek %v", near, far)
	}
	same := m.Access(OpRead, 16, 17, 1, cfg)
	if same >= near {
		t.Errorf("same-track %v >= one-track %v", same, near)
	}
}

// TestSeekRotateChargesTransferPerBlock: an access that moves a whole track
// (a track read or a write run) pays the transfer of every block it moves,
// on top of the one seek and half rotation.
func TestSeekRotateChargesTransferPerBlock(t *testing.T) {
	m := WrenSeekRotate()
	d := New(Config{NumBlocks: 64, BlocksPerTrack: 8, Timing: m})
	one := m.Base + m.Rotation/2 + m.TransferPerBlock
	track := m.Base + m.Rotation/2 + 8*m.TransferPerBlock
	run(t, func(p sim.Proc) {
		// The head starts at block 0, so every access below is on track 0.
		start := p.Now()
		if err := d.WriteBlock(p, 3, make([]byte, 1024)); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
		if got := p.Now() - start; got != one {
			t.Errorf("one-block write charged %v, want %v", got, one)
		}
		start = p.Now()
		if err := d.ReadTrack(p, 5, func(int, []byte) {}); err != nil {
			t.Fatalf("ReadTrack: %v", err)
		}
		if got := p.Now() - start; got != track {
			t.Errorf("track read charged %v, want %v (8 blocks transferred)", got, track)
		}
		start = p.Now()
		if err := d.WriteRun(p, 0, blockImages(8, 1)); err != nil {
			t.Fatalf("WriteRun: %v", err)
		}
		if got := p.Now() - start; got != track {
			t.Errorf("8-block write run charged %v, want %v", got, track)
		}
	})
}

// blockImages returns k one-block images, the i-th filled with fill+i.
func blockImages(k int, fill byte) [][]byte {
	imgs := make([][]byte, k)
	for i := range imgs {
		imgs[i] = bytes.Repeat([]byte{fill + byte(i)}, 1024)
	}
	return imgs
}

// TestWriteRunSingleCharge: a run of k blocks on one track costs one access
// and moves k blocks, and each block holds its own image.
func TestWriteRunSingleCharge(t *testing.T) {
	d := New(Config{NumBlocks: 32, BlocksPerTrack: 8, Timing: FixedTiming{Latency: 15 * time.Millisecond}})
	run(t, func(p sim.Proc) {
		imgs := blockImages(5, 10)
		if err := d.WriteRun(p, 10, imgs); err != nil {
			t.Fatalf("WriteRun: %v", err)
		}
		if p.Now() != 15*time.Millisecond {
			t.Errorf("a run of 5 charged %v, want one access (15ms)", p.Now())
		}
		imgs[0][0] = 99 // the caller keeps its images
		for i := 0; i < 5; i++ {
			if got := d.Peek(10 + i); got == nil || got[0] != byte(10+i) || got[1023] != byte(10+i) {
				t.Errorf("block %d does not hold image %d", 10+i, i)
			}
		}
	})
	if ops, blocks := d.Stats().Get("disk.ops"), d.Stats().Get("disk.blocks"); ops != 1 || blocks != 5 {
		t.Errorf("disk.ops %d, disk.blocks %d; want 1 and 5", ops, blocks)
	}
}

// TestWriteRunRefused: a run that leaves its track, runs off the device or
// carries a short image is refused before it costs anything or lands.
func TestWriteRunRefused(t *testing.T) {
	d := New(Config{NumBlocks: 20, BlocksPerTrack: 8, Timing: FixedTiming{Latency: 15 * time.Millisecond}})
	run(t, func(p sim.Proc) {
		if err := d.WriteRun(p, 6, blockImages(3, 1)); !errors.Is(err, ErrOffTrack) {
			t.Errorf("run 6..8 across a track boundary = %v, want ErrOffTrack", err)
		}
		if err := d.WriteRun(p, 17, blockImages(4, 1)); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("run 17..20 past the device = %v, want ErrOutOfRange", err)
		}
		short := blockImages(2, 1)
		short[1] = short[1][:100]
		if err := d.WriteRun(p, 0, short); !errors.Is(err, ErrBadSize) {
			t.Errorf("run with a short image = %v, want ErrBadSize", err)
		}
		if p.Now() != 0 {
			t.Errorf("refused runs charged %v, want nothing", p.Now())
		}
	})
	for bn := 0; bn < 20; bn++ {
		if d.Peek(bn) != nil {
			t.Errorf("block %d landed from a refused run", bn)
		}
	}
}

// failAt is a FaultHook that fails writes of one block and records the
// blocks it was consulted about.
type failAt struct {
	bn    int
	asked []int
}

func (f *failAt) BeforeOp(_ time.Duration, _ string, op Op, bn int) (time.Duration, error) {
	f.asked = append(f.asked, bn)
	if op == OpWrite && bn == f.bn {
		return 0, errors.New("injected")
	}
	return 0, nil
}

// TestWriteRunFaultLandsNothing: the fault hook is asked about the blocks
// of a run in ascending order; a fault on a middle block fails the whole
// run, charged one access, and no block of it lands.
func TestWriteRunFaultLandsNothing(t *testing.T) {
	for _, wb := range []bool{false, true} {
		d := New(Config{NumBlocks: 16, BlocksPerTrack: 8, Timing: FixedTiming{Latency: 15 * time.Millisecond}, WriteBack: wb})
		hook := &failAt{bn: 10}
		d.SetFault(hook, "d")
		run(t, func(p sim.Proc) {
			if err := d.WriteRun(p, 8, blockImages(6, 1)); err == nil {
				t.Fatal("a run with a faulty middle block succeeded")
			}
			if p.Now() != 15*time.Millisecond {
				t.Errorf("write-back %v: the failed run charged %v, want one access", wb, p.Now())
			}
		})
		if want := []int{8, 9, 10}; !slices.Equal(hook.asked, want) {
			t.Errorf("write-back %v: hook asked about %v, want %v", wb, hook.asked, want)
		}
		for bn := 8; bn < 14; bn++ {
			if d.Peek(bn) != nil {
				t.Errorf("write-back %v: block %d landed from a failed run", wb, bn)
			}
		}
	}
}

// keepTorn is a CrashHook that keeps a fixed prefix and tears the next
// write, recording the pending list it was shown.
type keepTorn struct {
	out     CrashOutcome
	pending []int
}

func (h *keepTorn) OnCrash(_ time.Duration, _ string, pending []int) CrashOutcome {
	h.pending = pending
	return h.out
}

// TestWriteRunCrashLikeSeparateWrites: under WriteBack a run is k buffered
// writes in ascending order, so a crash keeps a prefix of it and may tear
// one block — the same stable bytes as k separate WriteBlocks, for every
// prefix, torn or not.
func TestWriteRunCrashLikeSeparateWrites(t *testing.T) {
	const k = 6
	for keep := 0; keep <= k; keep++ {
		for _, torn := range []int{0, 300} {
			out := CrashOutcome{Keep: keep, TornBytes: torn}
			stable := func(useRun bool) ([][]byte, []int) {
				d := New(Config{NumBlocks: 16, BlocksPerTrack: 8, Timing: FixedTiming{}, WriteBack: true})
				hook := &keepTorn{out: out}
				d.SetCrashHook(hook)
				run(t, func(p sim.Proc) {
					if err := d.WriteRun(p, 8, blockImages(k, 0xA0)); err != nil { // the old images, synced
						t.Fatalf("WriteRun: %v", err)
					}
					if err := d.Sync(p); err != nil {
						t.Fatalf("Sync: %v", err)
					}
					imgs := blockImages(k, 1)
					if useRun {
						if err := d.WriteRun(p, 8, imgs); err != nil {
							t.Fatalf("WriteRun: %v", err)
						}
					} else {
						for i, img := range imgs {
							if err := d.WriteBlock(p, 8+i, img); err != nil {
								t.Fatalf("WriteBlock: %v", err)
							}
						}
					}
					d.Crash(p.Now())
				})
				var got [][]byte
				for bn := 8; bn < 8+k; bn++ {
					got = append(got, bytes.Clone(d.PeekStable(bn)))
				}
				return got, hook.pending
			}
			runImgs, runPending := stable(true)
			sepImgs, sepPending := stable(false)
			if !slices.Equal(runPending, sepPending) || !slices.Equal(runPending, []int{8, 9, 10, 11, 12, 13}) {
				t.Errorf("pending writes %v (run) and %v (separate), want 8..13 in order", runPending, sepPending)
			}
			for i := range runImgs {
				if !bytes.Equal(runImgs[i], sepImgs[i]) {
					t.Errorf("keep %d torn %d: block %d differs between a run and separate writes", keep, torn, 8+i)
				}
				want := byte(0xA0 + i) // lost: the old image
				if i < keep {
					want = byte(1 + i)
				}
				if runImgs[i][len(runImgs[i])-1] != want {
					t.Errorf("keep %d torn %d: block %d ends in %#x, want %#x", keep, torn, 8+i, runImgs[i][1023], want)
				}
				if i == keep && torn > 0 && runImgs[i][0] != byte(1+i) {
					t.Errorf("keep %d: block %d was not torn: front %#x", keep, 8+i, runImgs[i][0])
				}
			}
		}
	}
}

// Property: any sequence of valid writes followed by reads behaves like a
// map from block number to last-written contents.
func TestQuickDiskActsLikeMap(t *testing.T) {
	f := func(ops []struct {
		BN   uint8
		Fill byte
	}) bool {
		const n = 32
		d := New(Config{NumBlocks: n, Timing: FixedTiming{}})
		model := map[int]byte{}
		rt := sim.NewVirtual()
		okAll := true
		rt.Run("w", func(p sim.Proc) {
			for _, op := range ops {
				bn := int(op.BN) % n
				if err := d.WriteBlock(p, bn, bytes.Repeat([]byte{op.Fill}, 1024)); err != nil {
					okAll = false
					return
				}
				model[bn] = op.Fill
			}
			for bn, fill := range model {
				got, err := d.ReadBlock(p, bn)
				if err != nil || got[0] != fill || got[1023] != fill {
					okAll = false
					return
				}
			}
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsWriteBlockRewrite: a write-through over a block that already
// has a stable image copies into that image in place, as does a write run
// over a written track, and a track read lends out the device's own images,
// so none of them allocates.
func TestAllocsWriteBlockRewrite(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := New(Config{NumBlocks: 16, BlocksPerTrack: 8, Timing: FixedTiming{}})
	run(t, func(p sim.Proc) {
		data := bytes.Repeat([]byte{1}, 1024)
		if err := d.WriteBlock(p, 3, data); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
		img := d.PeekStable(3)
		allocs := testing.AllocsPerRun(1000, func() {
			data[0]++
			if err := d.WriteBlock(p, 3, data); err != nil {
				t.Errorf("WriteBlock: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("rewriting a written block allocates %v objects, want 0", allocs)
		}
		if got := d.PeekStable(3); &got[0] != &img[0] || got[0] != data[0] {
			t.Errorf("the rewrite did not land in the block's existing image")
		}
		imgs := blockImages(8, 1)
		if err := d.WriteRun(p, 8, imgs); err != nil {
			t.Fatalf("WriteRun: %v", err)
		}
		allocs = testing.AllocsPerRun(1000, func() {
			if err := d.WriteRun(p, 8, imgs); err != nil {
				t.Errorf("WriteRun: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("rewriting a written track in one run allocates %v objects, want 0", allocs)
		}
		sum := 0
		allocs = testing.AllocsPerRun(1000, func() {
			if err := d.ReadTrack(p, 3, func(bn int, img []byte) { sum += int(img[0]) }); err != nil {
				t.Errorf("ReadTrack: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("a track read allocates %v objects, want 0", allocs)
		}
	})
}

// latentAt is a FaultHook with a latent fault on a set of blocks: reads of
// them fail, and a track read must keep their bytes from every caller.
type latentAt map[int]bool

func (l latentAt) BeforeOp(_ time.Duration, _ string, op Op, bn int) (time.Duration, error) {
	if op == OpRead && l[bn] {
		return 0, errors.New("latent fault")
	}
	return 0, nil
}

func (l latentAt) Latent(_ string, bn int) bool { return l[bn] }

// TestReadTrackKeepsLatentNeighboursOut: a track read of a healthy block
// succeeds but leaves out a neighbour with a latent fault, and a track read
// issued for the faulty block itself fails.
func TestReadTrackKeepsLatentNeighboursOut(t *testing.T) {
	d := New(Config{NumBlocks: 16, BlocksPerTrack: 8, Timing: FixedTiming{}})
	d.SetFault(latentAt{11: true}, "d")
	run(t, func(p sim.Proc) {
		var bns []int
		if err := d.ReadTrack(p, 10, func(bn int, _ []byte) { bns = append(bns, bn) }); err != nil {
			t.Fatalf("ReadTrack(10): %v", err)
		}
		if want := []int{8, 9, 10, 12, 13, 14, 15}; !slices.Equal(bns, want) {
			t.Errorf("ReadTrack(10) handed out %v, want %v", bns, want)
		}
		if err := d.ReadTrack(p, 11, func(int, []byte) { t.Error("a failed track read handed out an image") }); err == nil {
			t.Error("ReadTrack(11) of the latent block succeeded")
		}
	})
}
