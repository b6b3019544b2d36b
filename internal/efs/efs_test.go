package efs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/sim"
)

func newDisk(nblocks int) *disk.Disk {
	return disk.New(disk.Config{
		NumBlocks: nblocks,
		Timing:    disk.FixedTiming{Latency: 15 * time.Millisecond},
	})
}

// fastDisk has zero access latency for pure-correctness tests.
func fastDisk(nblocks int) *disk.Disk {
	return disk.New(disk.Config{NumBlocks: nblocks, Timing: disk.FixedTiming{}})
}

func run(t *testing.T, fn func(p sim.Proc)) {
	t.Helper()
	rt := sim.NewVirtual()
	if err := rt.Run("test", fn); err != nil {
		t.Fatalf("sim run: %v", err)
	}
}

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestFormatAndMount(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 42); err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := fs.WriteBlock(p, 42, 0, fill(7, 100), -1); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		// Remount and read back.
		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		data, _, err := fs2.ReadBlock(p, 42, 0, -1)
		if err != nil {
			t.Fatalf("ReadBlock after mount: %v", err)
		}
		if !bytes.Equal(data, fill(7, 100)) {
			t.Error("data differs after remount")
		}
	})
}

func TestMountGarbageFails(t *testing.T) {
	d := fastDisk(64)
	run(t, func(p sim.Proc) {
		if _, err := Mount(p, d, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Mount unformatted = %v, want ErrCorrupt", err)
		}
	})
}

func TestCreateDuplicate(t *testing.T) {
	d := fastDisk(128)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		if err := fs.Create(p, 1); err != nil {
			t.Fatalf("Create: %v", err)
		}
		if err := fs.Create(p, 1); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate Create = %v, want ErrExists", err)
		}
	})
}

func TestReadWriteSequential(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 9)
		const n = 50
		hint := int32(-1)
		for i := 0; i < n; i++ {
			var err error
			hint, err = fs.WriteBlock(p, 9, uint32(i), fill(byte(i), DataBytes), hint)
			if err != nil {
				t.Fatalf("WriteBlock %d: %v", i, err)
			}
		}
		info, err := fs.Stat(p, 9)
		if err != nil || info.Blocks != n {
			t.Fatalf("Stat = %+v, %v; want %d blocks", info, err, n)
		}
		hint = -1
		for i := 0; i < n; i++ {
			data, addr, err := fs.ReadBlock(p, 9, uint32(i), hint)
			if err != nil {
				t.Fatalf("ReadBlock %d: %v", i, err)
			}
			hint = addr
			if len(data) != DataBytes || data[0] != byte(i) {
				t.Fatalf("block %d contents wrong", i)
			}
		}
	})
}

func TestShortBlockPreservesLength(t *testing.T) {
	d := fastDisk(128)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 5)
		fs.WriteBlock(p, 5, 0, []byte("hello"), -1)
		data, _, err := fs.ReadBlock(p, 5, 0, -1)
		if err != nil {
			t.Fatalf("ReadBlock: %v", err)
		}
		if string(data) != "hello" {
			t.Errorf("data = %q, want hello", data)
		}
	})
}

func TestOverwriteInPlace(t *testing.T) {
	d := fastDisk(128)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 5)
		for i := 0; i < 5; i++ {
			fs.WriteBlock(p, 5, uint32(i), fill(byte(i), 10), -1)
		}
		addr1, err := fs.WriteBlock(p, 5, 2, []byte("new"), -1)
		if err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		data, addr2, _ := fs.ReadBlock(p, 5, 2, -1)
		if string(data) != "new" {
			t.Errorf("data = %q, want new", data)
		}
		if addr1 != addr2 {
			t.Errorf("overwrite moved block: %d -> %d", addr1, addr2)
		}
		// Neighbors untouched.
		for _, i := range []uint32{1, 3} {
			d, _, _ := fs.ReadBlock(p, 5, i, -1)
			if d[0] != byte(i) {
				t.Errorf("neighbor block %d damaged by overwrite", i)
			}
		}
		if info, _ := fs.Stat(p, 5); info.Blocks != 5 {
			t.Errorf("Blocks = %d, want 5", info.Blocks)
		}
	})
}

func TestWriteGapRejected(t *testing.T) {
	d := fastDisk(128)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 5)
		if _, err := fs.WriteBlock(p, 5, 3, []byte("x"), -1); !errors.Is(err, ErrNotAppend) {
			t.Errorf("gap write = %v, want ErrNotAppend", err)
		}
	})
}

func TestReadPastEnd(t *testing.T) {
	d := fastDisk(128)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 5)
		fs.WriteBlock(p, 5, 0, []byte("x"), -1)
		if _, _, err := fs.ReadBlock(p, 5, 1, -1); !errors.Is(err, ErrBadBlockNum) {
			t.Errorf("read past end = %v, want ErrBadBlockNum", err)
		}
	})
}

func TestReadMissingFile(t *testing.T) {
	d := fastDisk(128)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		if _, _, err := fs.ReadBlock(p, 404, 0, -1); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing file = %v, want ErrNotFound", err)
		}
	})
}

func TestTooLargeWrite(t *testing.T) {
	d := fastDisk(128)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 5)
		if _, err := fs.WriteBlock(p, 5, 0, make([]byte, DataBytes+1), -1); !errors.Is(err, ErrTooLarge) {
			t.Errorf("oversized write = %v, want ErrTooLarge", err)
		}
	})
}

func TestDeleteFreesBlocks(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		free0 := fs.FreeBlocks()
		fs.Create(p, 5)
		for i := 0; i < 20; i++ {
			fs.WriteBlock(p, 5, uint32(i), fill(1, 8), -1)
		}
		if got := fs.FreeBlocks(); got != free0-20 {
			t.Errorf("free after writes = %d, want %d", got, free0-20)
		}
		n, err := fs.Delete(p, 5)
		if err != nil || n != 20 {
			t.Fatalf("Delete = %d, %v; want 20", n, err)
		}
		if got := fs.FreeBlocks(); got != free0 {
			t.Errorf("free after delete = %d, want %d", got, free0)
		}
		if _, err := fs.Stat(p, 5); !errors.Is(err, ErrNotFound) {
			t.Errorf("Stat after delete = %v, want ErrNotFound", err)
		}
		// Space is reusable.
		fs.Create(p, 6)
		for i := 0; i < 20; i++ {
			if _, err := fs.WriteBlock(p, 6, uint32(i), fill(2, 8), -1); err != nil {
				t.Fatalf("write after delete: %v", err)
			}
		}
	})
}

func TestDeleteMissing(t *testing.T) {
	d := fastDisk(128)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		if _, err := fs.Delete(p, 404); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete missing = %v, want ErrNotFound", err)
		}
	})
}

func TestNoSpace(t *testing.T) {
	d := fastDisk(32) // tiny volume
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{DirBuckets: 2})
		fs.Create(p, 1)
		var i uint32
		for {
			_, err := fs.WriteBlock(p, 1, i, []byte("x"), -1)
			if err != nil {
				if !errors.Is(err, ErrNoSpace) {
					t.Fatalf("WriteBlock = %v, want ErrNoSpace", err)
				}
				break
			}
			i++
			if i > 64 {
				t.Fatal("never ran out of space")
			}
		}
		// The failed allocation must not corrupt the file.
		info, err := fs.Stat(p, 1)
		if err != nil || info.Blocks != int(i) {
			t.Fatalf("Stat after ENOSPC = %+v, %v; want %d blocks", info, err, i)
		}
	})
}

func TestManyFilesBucketOverflow(t *testing.T) {
	// More files than one bucket can hold forces overflow buckets.
	d := fastDisk(4096)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{DirBuckets: 2})
		const n = 200 // 2 buckets * 63 entries < 200
		for i := 0; i < n; i++ {
			if err := fs.Create(p, uint32(i)); err != nil {
				t.Fatalf("Create %d: %v", i, err)
			}
			if _, err := fs.WriteBlock(p, uint32(i), 0, fill(byte(i), 4), -1); err != nil {
				t.Fatalf("Write %d: %v", i, err)
			}
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		ids, err := fs2.ListFiles(p)
		if err != nil {
			t.Fatalf("ListFiles: %v", err)
		}
		if len(ids) != n {
			t.Fatalf("ListFiles = %d ids, want %d", len(ids), n)
		}
		for i := 0; i < n; i++ {
			data, _, err := fs2.ReadBlock(p, uint32(i), 0, -1)
			if err != nil || data[0] != byte(i) {
				t.Fatalf("file %d after remount: %v", i, err)
			}
		}
	})
}

func TestHintSkipsWalk(t *testing.T) {
	d := newDisk(2048)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{CacheBlocks: 4}) // tiny cache defeats the location map
		fs.Create(p, 1)
		const n = 400
		for i := 0; i < n; i++ {
			fs.WriteBlock(p, 1, uint32(i), fill(1, 8), -1)
		}
		// Random-ish read in the middle without a hint: long walk.
		fs.Stats().Reset()
		if _, _, err := fs.ReadBlock(p, 1, n/2, -1); err != nil {
			t.Fatalf("ReadBlock: %v", err)
		}
		coldSteps := fs.Stats().Get("efs.walk_steps")
		// Same read with a perfect hint for the neighbor.
		_, addr, _ := fs.ReadBlock(p, 1, n/2-1, -1)
		fs.Stats().Reset()
		if _, _, err := fs.ReadBlock(p, 1, n/2, addr); err != nil {
			t.Fatalf("ReadBlock with hint: %v", err)
		}
		hintSteps := fs.Stats().Get("efs.walk_steps")
		if hintSteps > 1 {
			t.Errorf("hinted read walked %d steps, want <= 1", hintSteps)
		}
		if coldSteps < 50 {
			t.Errorf("cold read walked only %d steps; test setup wrong", coldSteps)
		}
	})
}

func TestBogusHintIgnored(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		fs.Create(p, 2)
		fs.WriteBlock(p, 1, 0, []byte("one"), -1)
		addr2, _ := fs.WriteBlock(p, 2, 0, []byte("two"), -1)
		// Hint pointing into file 2 while reading file 1.
		data, _, err := fs.ReadBlock(p, 1, 0, addr2)
		if err != nil || string(data) != "one" {
			t.Errorf("read with foreign hint = %q, %v; want one", data, err)
		}
		// Hint outside the data region.
		data, _, err = fs.ReadBlock(p, 1, 0, 0)
		if err != nil || string(data) != "one" {
			t.Errorf("read with metadata hint = %q, %v; want one", data, err)
		}
		// Wildly out-of-range hint.
		data, _, err = fs.ReadBlock(p, 1, 0, 1<<30)
		if err != nil || string(data) != "one" {
			t.Errorf("read with out-of-range hint = %q, %v; want one", data, err)
		}
	})
}

func TestBackwardWalkFromHint(t *testing.T) {
	// A hint PAST the target forces a backward walk over prev pointers.
	d := newDisk(2048)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{CacheBlocks: 4})
		fs.Create(p, 1)
		const n = 200
		for i := 0; i < n; i++ {
			fs.WriteBlock(p, 1, uint32(i), fill(byte(i), 8), -1)
		}
		// Learn the address of a late block, then read an earlier one
		// using it as the hint: distance 5 backward vs 120 forward from
		// first / 74 backward from last.
		_, lateAddr, err := fs.ReadBlock(p, 1, 125, -1)
		if err != nil {
			t.Fatalf("read 125: %v", err)
		}
		fs.Stats().Reset()
		data, _, err := fs.ReadBlock(p, 1, 120, lateAddr)
		if err != nil || data[0] != 120 {
			t.Fatalf("read 120 via hint: %v", err)
		}
		if steps := fs.Stats().Get("efs.walk_steps"); steps > 6 {
			t.Errorf("backward walk took %d steps, want <= 6 (hint distance 5)", steps)
		}
	})
}

func TestReadsAfterOverwriteKeepChain(t *testing.T) {
	d := fastDisk(1024)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		for i := 0; i < 60; i++ {
			fs.WriteBlock(p, 1, uint32(i), fill(byte(i), 8), -1)
		}
		// Overwrite a middle block, then walk across it both ways.
		fs.WriteBlock(p, 1, 30, []byte("mid"), -1)
		for _, i := range []uint32{29, 30, 31, 59, 0} {
			data, _, err := fs.ReadBlock(p, 1, i, -1)
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if i == 30 {
				if string(data) != "mid" {
					t.Errorf("block 30 = %q", data)
				}
			} else if data[0] != byte(i) {
				t.Errorf("block %d corrupt after overwrite", i)
			}
		}
	})
}

func TestSequentialReadUsesTrackBuffer(t *testing.T) {
	d := newDisk(2048)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		fs.Create(p, 1)
		const n = 256
		for i := 0; i < n; i++ {
			fs.WriteBlock(p, 1, uint32(i), fill(1, 8), -1)
		}
		reads0 := d.Stats().Get("disk.reads")
		hint := int32(-1)
		for i := 0; i < n; i++ {
			_, addr, err := fs.ReadBlock(p, 1, uint32(i), hint)
			if err != nil {
				t.Fatalf("ReadBlock %d: %v", i, err)
			}
			hint = addr
		}
		reads := d.Stats().Get("disk.reads") - reads0
		// With 8 blocks per track and sequential allocation, ~n/8 device
		// reads; allow slack for track misalignment.
		if reads > n/4 {
			t.Errorf("sequential read of %d blocks cost %d device reads; track buffering broken", n, reads)
		}
	})
}

func TestAppendCostTwoAccessesSteadyState(t *testing.T) {
	d := newDisk(2048)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		fs.WriteBlock(p, 1, 0, fill(1, 8), -1) // first block: 1 access
		start := p.Now()
		ops0 := d.Stats().Get("disk.ops")
		const n = 100
		for i := 1; i <= n; i++ {
			fs.WriteBlock(p, 1, uint32(i), fill(1, 8), -1)
		}
		ops := d.Stats().Get("disk.ops") - ops0
		elapsed := p.Now() - start
		// Steady state: new block write + old tail pointer rewrite.
		if ops != 2*n {
			t.Errorf("steady-state appends cost %d accesses, want %d", ops, 2*n)
		}
		perBlock := elapsed / n
		if perBlock != 30*time.Millisecond {
			t.Errorf("append cost %v per block, want 30ms (2 x 15ms)", perBlock)
		}
	})
}

// failWrite is a disk.FaultHook that fails every write to one block.
type failWrite struct{ bn int }

func (f failWrite) BeforeOp(_ time.Duration, _ string, op disk.Op, bn int) (time.Duration, error) {
	if op == disk.OpWrite && bn == f.bn {
		return 0, errors.New("injected write failure")
	}
	return 0, nil
}

// An append whose last step fails — the rewrite of the old tail's next
// pointer, after the new blocks are down — takes its allocation back: the
// file, the free count and fsck are as they were. A single-block WriteBlock
// append is a run of one and undoes itself like any other run. On a
// journaled volume the old tail is held and written first, in the run with
// the new blocks: the failed run lands nothing, the tail stays held with
// its wrap link, and the next Sync writes it.
func TestFailedTailFixLeaksNothing(t *testing.T) {
	appends := []struct {
		name string
		do   func(p sim.Proc, fs *FS) error
	}{
		{"WriteBlock", func(p sim.Proc, fs *FS) error {
			_, err := fs.WriteBlock(p, 1, 3, fill(9, 8), -1)
			return err
		}},
		{"AppendRun", func(p sim.Proc, fs *FS) error {
			_, err := fs.AppendRun(p, 1, 3, nil, [][]byte{fill(9, 8), fill(9, 8)})
			return err
		}},
	}
	for _, journal := range []int{0, 32} {
		for _, a := range appends {
			name, appendTo := fmt.Sprintf("%s/journal%d", a.name, journal), a.do
			d := fastDisk(256)
			run(t, func(p sim.Proc) {
				fs, _ := Format(p, d, Options{JournalBlocks: journal})
				fs.Create(p, 1)
				for i := 0; i < 3; i++ {
					fs.WriteBlock(p, 1, uint32(i), fill(byte(i+1), 8), -1)
				}
				info, _ := fs.Stat(p, 1)
				free := fs.FreeBlocks()
				d.SetFault(failWrite{bn: int(info.Last)}, "d")
				if err := appendTo(p, fs); err == nil {
					t.Errorf("%s: append with an unwritable tail succeeded", name)
				}
				d.SetFault(nil, "")
				if got := fs.FreeBlocks(); got != free {
					t.Errorf("%s: FreeBlocks %d -> %d after a failed append", name, free, got)
				}
				if after, _ := fs.Stat(p, 1); after != info {
					t.Errorf("%s: file changed: %+v -> %+v", name, info, after)
				}
				if rep, err := fs.Check(p); err != nil || !rep.OK() {
					t.Errorf("%s: fsck after a failed append: %v %v", name, err, rep.Problems)
				}
				if journal == 0 {
					return
				}
				if !fs.jnl.held[info.Last] || decodeHeader(fs.jnl.data[info.Last]).Next != info.First {
					t.Errorf("%s: the old tail is no longer held with its wrap link", name)
				}
				if err := fs.Sync(p); err != nil {
					t.Fatalf("%s: Sync: %v", name, err)
				}
				fs2, err := Mount(p, d, Options{})
				if err != nil {
					t.Fatalf("%s: Mount: %v", name, err)
				}
				if rep, err := fs2.Check(p); err != nil || !rep.OK() {
					t.Errorf("%s: fsck after remount: %v %v", name, err, rep.Problems)
				}
				for i := 0; i < 3; i++ {
					if got, _, err := fs2.ReadBlock(p, 1, uint32(i), -1); err != nil || !bytes.Equal(got, fill(byte(i+1), 8)) {
						t.Errorf("%s: block %d after remount: %v", name, i, err)
					}
				}
			})
		}
	}
}

func TestStatReflectsChain(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 7)
		info, err := fs.Stat(p, 7)
		if err != nil || info.Blocks != 0 || info.First != nilAddr || info.Last != nilAddr {
			t.Fatalf("empty Stat = %+v, %v", info, err)
		}
		a0, _ := fs.WriteBlock(p, 7, 0, []byte("a"), -1)
		a1, _ := fs.WriteBlock(p, 7, 1, []byte("b"), -1)
		info, _ = fs.Stat(p, 7)
		if info.First != a0 || info.Last != a1 || info.Blocks != 2 {
			t.Errorf("Stat = %+v, want first %d last %d blocks 2", info, a0, a1)
		}
	})
}

func TestDeleteTimePerBlock(t *testing.T) {
	// Table 2 shape: delete traverses the chain freeing each block at
	// roughly one device write each (~15-17ms with track-buffered reads).
	d := newDisk(2048)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		const n = 128
		for i := 0; i < n; i++ {
			fs.WriteBlock(p, 1, uint32(i), fill(1, 8), -1)
		}
		start := p.Now()
		if _, err := fs.Delete(p, 1); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		perBlock := (p.Now() - start) / n
		if perBlock < 15*time.Millisecond || perBlock > 20*time.Millisecond {
			t.Errorf("delete cost %v per block, want 15-20ms", perBlock)
		}
	})
}

func TestInterleavedFilesShareVolume(t *testing.T) {
	d := fastDisk(1024)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		const nf = 8
		for f := 0; f < nf; f++ {
			fs.Create(p, uint32(f))
		}
		// Interleave appends across files.
		for i := 0; i < 40; i++ {
			for f := 0; f < nf; f++ {
				if _, err := fs.WriteBlock(p, uint32(f), uint32(i), []byte{byte(f), byte(i)}, -1); err != nil {
					t.Fatalf("write f%d b%d: %v", f, i, err)
				}
			}
		}
		for f := 0; f < nf; f++ {
			for i := 0; i < 40; i++ {
				data, _, err := fs.ReadBlock(p, uint32(f), uint32(i), -1)
				if err != nil || data[0] != byte(f) || data[1] != byte(i) {
					t.Fatalf("read f%d b%d = %v, %v", f, i, data, err)
				}
			}
		}
	})
}

func TestLargeFileCrossesTrackBoundaries(t *testing.T) {
	d := fastDisk(8192)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		const n = 2000
		for i := 0; i < n; i++ {
			if _, err := fs.WriteBlock(p, 1, uint32(i), []byte{byte(i), byte(i >> 8)}, -1); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		for _, i := range []int{0, 1, 511, 512, 1023, 1999} {
			data, _, err := fs.ReadBlock(p, 1, uint32(i), -1)
			if err != nil || data[0] != byte(i) || data[1] != byte(i>>8) {
				t.Fatalf("read %d: %v %v", i, data, err)
			}
		}
	})
}

func BenchmarkSequentialWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt := sim.NewVirtual()
		d := fastDisk(4096)
		err := rt.Run("bench", func(p sim.Proc) {
			fs, _ := Format(p, d, Options{})
			fs.Create(p, 1)
			for j := 0; j < 1000; j++ {
				fs.WriteBlock(p, 1, uint32(j), []byte("x"), -1)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestListFilesEmpty(t *testing.T) {
	d := fastDisk(128)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		ids, err := fs.ListFiles(p)
		if err != nil {
			t.Fatalf("ListFiles: %v", err)
		}
		if len(ids) != 0 {
			t.Errorf("ListFiles on empty volume = %v", ids)
		}
	})
}

func TestBucketDistribution(t *testing.T) {
	// Fibonacci hashing should spread sequential ids over buckets.
	counts := make(map[int]int)
	for id := uint32(0); id < 1000; id++ {
		counts[bucketFor(id, 16)]++
	}
	for b := 0; b < 16; b++ {
		if counts[b] == 0 {
			t.Errorf("bucket %d empty for sequential ids", b)
		}
		if counts[b] > 1000/16*3 {
			t.Errorf("bucket %d badly skewed: %d of 1000", b, counts[b])
		}
	}
}

func ExampleFormat() {
	rt := sim.NewVirtual()
	d := disk.New(disk.Config{NumBlocks: 128, Timing: disk.FixedTiming{}})
	rt.Run("example", func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		fs.WriteBlock(p, 1, 0, []byte("hello bridge"), -1)
		data, _, _ := fs.ReadBlock(p, 1, 0, -1)
		fmt.Println(string(data))
	})
	// Output: hello bridge
}
