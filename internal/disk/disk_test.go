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
	near := m.Access(OpRead, 0, 8, cfg)
	far := m.Access(OpRead, 0, 8000, cfg)
	if near >= far {
		t.Errorf("near seek %v >= far seek %v", near, far)
	}
	same := m.Access(OpRead, 16, 17, cfg)
	if same >= near {
		t.Errorf("same-track %v >= one-track %v", same, near)
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
// has a stable image copies into that image in place, and a track read
// lends out the device's own images, so neither allocates.
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
