package efs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bridge/internal/disk"
	"bridge/internal/sim"
)

func TestCheckCleanVolume(t *testing.T) {
	d := fastDisk(1024)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		for f := 0; f < 5; f++ {
			fs.Create(p, uint32(f))
			for i := 0; i < 10+f; i++ {
				fs.WriteBlock(p, uint32(f), uint32(i), fill(byte(f), 8), -1)
			}
		}
		fs.Delete(p, 2)
		rep, err := fs.Check(p)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if !rep.OK() {
			t.Fatalf("clean volume failed check: %v", rep.Problems)
		}
		if rep.Files != 4 {
			t.Errorf("Files = %d, want 4", rep.Files)
		}
		if want := 10 + 11 + 13 + 14; rep.ChainBlocks != want {
			t.Errorf("ChainBlocks = %d, want %d", rep.ChainBlocks, want)
		}
	})
}

func TestCheckAfterRemount(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		for i := 0; i < 30; i++ {
			fs.WriteBlock(p, 1, uint32(i), fill(1, 4), -1)
		}
		fs.Sync(p)
		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		rep, err := fs2.Check(p)
		if err != nil || !rep.OK() {
			t.Fatalf("Check after remount: %v %v", err, rep.Problems)
		}
	})
}

// corruptBlock rewrites a raw block on disk behind the file system's back
// and drops it from the cache.
func corruptBlock(p sim.Proc, fs *FS, addr int32, mutate func(h *blockHeader)) error {
	raw, err := fs.d.ReadBlock(p, int(addr))
	if err != nil {
		return err
	}
	h := decodeHeader(raw)
	mutate(&h)
	encodeHeader(raw, h)
	if err := fs.d.WriteBlock(p, int(addr), raw); err != nil {
		return err
	}
	fs.invalidate(addr)
	return nil
}

func TestCheckDetectsWrongFileID(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		var addr int32
		for i := 0; i < 5; i++ {
			addr, _ = fs.WriteBlock(p, 1, uint32(i), fill(1, 4), -1)
		}
		if err := corruptBlock(p, fs, addr, func(h *blockHeader) { h.FileID = 99 }); err != nil {
			t.Fatalf("corrupt: %v", err)
		}
		rep, err := fs.Check(p)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if rep.OK() {
			t.Fatal("corrupted file id not detected")
		}
		if !strings.Contains(strings.Join(rep.Problems, ";"), "carries file id 99") {
			t.Errorf("unexpected problems: %v", rep.Problems)
		}
	})
}

func TestCheckDetectsBrokenChain(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		var addrs []int32
		for i := 0; i < 5; i++ {
			a, _ := fs.WriteBlock(p, 1, uint32(i), fill(1, 4), -1)
			addrs = append(addrs, a)
		}
		// Point block 1's next somewhere bogus.
		if err := corruptBlock(p, fs, addrs[1], func(h *blockHeader) { h.Next = addrs[1] }); err != nil {
			t.Fatalf("corrupt: %v", err)
		}
		rep, err := fs.Check(p)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if rep.OK() {
			t.Fatal("broken chain not detected")
		}
	})
}

func TestCheckDetectsLeakedBlock(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		fs.WriteBlock(p, 1, 0, fill(1, 4), -1)
		// Allocate a block in the bitmap without chaining it anywhere.
		leaked := fs.allocBlock(nilAddr)
		if leaked == nilAddr {
			t.Fatal("alloc failed")
		}
		rep, err := fs.Check(p)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if rep.OK() {
			t.Fatal("leaked block not detected")
		}
		if !strings.Contains(strings.Join(rep.Problems, ";"), "leaked") {
			t.Errorf("unexpected problems: %v", rep.Problems)
		}
	})
}

func TestCheckDetectsFreeChainedBlock(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		addr, _ := fs.WriteBlock(p, 1, 0, fill(1, 4), -1)
		// Clear the bitmap bit under a live block.
		fs.bm.clear(int(addr))
		rep, err := fs.Check(p)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if rep.OK() {
			t.Fatal("chained-but-free block not detected")
		}
	})
}

func TestRepairFixesBitmapDamage(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		var addr int32
		for i := 0; i < 8; i++ {
			addr, _ = fs.WriteBlock(p, 1, uint32(i), fill(1, 4), -1)
		}
		// Damage both ways: leak a block and free a live one.
		leaked := fs.allocBlock(nilAddr)
		fs.bm.clear(int(addr))
		rep, err := fs.Check(p)
		if err != nil || rep.OK() {
			t.Fatalf("damage not detected: %v %v", err, rep.Problems)
		}
		rep, fixes, err := fs.Repair(p)
		if err != nil {
			t.Fatalf("Repair: %v", err)
		}
		if fixes != 2 {
			t.Errorf("fixes = %d, want 2", fixes)
		}
		if !rep.OK() {
			t.Errorf("volume still bad after repair: %v", rep.Problems)
		}
		_ = leaked
		// Data intact.
		for i := 0; i < 8; i++ {
			data, _, err := fs.ReadBlock(p, 1, uint32(i), -1)
			if err != nil || data[0] != 1 {
				t.Errorf("block %d after repair: %v", i, err)
			}
		}
	})
}

func TestRepairCleanVolumeIsNoop(t *testing.T) {
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{})
		fs.Create(p, 1)
		fs.WriteBlock(p, 1, 0, fill(1, 4), -1)
		rep, fixes, err := fs.Repair(p)
		if err != nil || fixes != 0 || !rep.OK() {
			t.Errorf("Repair clean = %d fixes, %v, %v", fixes, err, rep.Problems)
		}
	})
}

func TestCheckWithOverflowBuckets(t *testing.T) {
	d := fastDisk(4096)
	run(t, func(p sim.Proc) {
		fs, _ := Format(p, d, Options{DirBuckets: 2})
		for f := 0; f < 150; f++ { // forces overflow buckets
			fs.Create(p, uint32(f))
			fs.WriteBlock(p, uint32(f), 0, fill(byte(f), 4), -1)
		}
		rep, err := fs.Check(p)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if !rep.OK() {
			t.Fatalf("volume with overflow buckets failed: %v", rep.Problems)
		}
		if rep.Files != 150 {
			t.Errorf("Files = %d, want 150", rep.Files)
		}
	})
}

// TestRewritePastTwoUnconfirmableLinks: the block a repair rewrites has a
// rotted next link, and the walk from the tail stops at another corrupt block
// whose prev link names the wrong block (a misdirected write's victim). No
// walk from either end reaches the rewrite's successor, so the repair finds
// it as the verified block whose own prev link names the rewritten one:
// through the location map a track read filled, or by searching the volume
// when nothing maps it. Both corrupt blocks are then rewritten and the volume
// checks clean.
func TestRewritePastTwoUnconfirmableLinks(t *testing.T) {
	for _, perTrack := range []int{8, 1} {
		t.Run(fmt.Sprintf("track%d", perTrack), func(t *testing.T) {
			d := disk.New(disk.Config{NumBlocks: 512, BlocksPerTrack: perTrack, Timing: disk.FixedTiming{}})
			run(t, func(p sim.Proc) {
				fs, err := Format(p, d, Options{})
				if err != nil {
					t.Fatalf("Format: %v", err)
				}
				if err := fs.Create(p, 1); err != nil {
					t.Fatalf("Create: %v", err)
				}
				var addrs []int32
				for i := 0; i < 6; i++ {
					a, err := fs.WriteBlock(p, 1, uint32(i), fill(byte(i+1), 8), -1)
					if err != nil {
						t.Fatalf("WriteBlock %d: %v", i, err)
					}
					addrs = append(addrs, a)
				}
				if err := fs.Sync(p); err != nil {
					t.Fatalf("Sync: %v", err)
				}
				for _, c := range []struct {
					block  int
					mutate func(h *blockHeader)
				}{
					{1, func(h *blockHeader) { h.Next = addrs[5] + 100 }},
					{4, func(h *blockHeader) { h.Prev = addrs[0] }},
				} {
					if err := corruptBlock(p, fs, addrs[c.block], c.mutate); err != nil {
						t.Fatalf("corrupt block %d: %v", c.block, err)
					}
				}
				fs, err = Mount(p, d, Options{}) // nothing cached, nothing mapped
				if err != nil {
					t.Fatalf("Mount: %v", err)
				}
				want := map[int][]byte{1: fill(0xb1, 8), 4: fill(0xb4, 8)}
				for _, bn := range []int{1, 4} {
					if _, err := fs.WriteBlock(p, 1, uint32(bn), want[bn], -1); err != nil {
						t.Fatalf("rewriting corrupt block %d: %v", bn, err)
					}
				}
				for bn := 0; bn < 6; bn++ {
					w, ok := want[bn]
					if !ok {
						w = fill(byte(bn+1), 8)
					}
					if got, _, err := fs.ReadBlock(p, 1, uint32(bn), -1); err != nil || !bytes.Equal(got, w) {
						t.Errorf("block %d after the repair: %x, %v; want %x", bn, got, err, w)
					}
				}
				if rep, err := fs.Check(p); err != nil || !rep.OK() {
					t.Errorf("Check after the repair: %v %v", err, rep.Problems)
				}
			})
		})
	}
}
