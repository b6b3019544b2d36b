package efs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bridge/internal/fault"
	"bridge/internal/sim"
)

// Block images below the LFS have one owner each — the medium, a cache
// slot, the journal — and EFS lends them out read-only. These tests hold the
// boundary: what crosses it in either direction is a copy, a failed write
// leaves no half-changed image behind, and corruption is still caught when
// nothing is copied on the way to the checksum.

// cachedImage returns the cache's image of addr, failing if it is not cached.
func cachedImage(t *testing.T, fs *FS, addr int32) []byte {
	t.Helper()
	b, ok := fs.cache.peek(addr)
	if !ok {
		t.Fatalf("block %d is not cached", addr)
	}
	return b
}

// TestReadBlockResultIsTheCallersOwn: scribbling over what ReadBlock
// returned changes neither the cached image, the journal's deferred image,
// nor the disk's.
func TestReadBlockResultIsTheCallersOwn(t *testing.T) {
	for _, journal := range []int{0, 32} {
		d := fastDisk(256)
		run(t, func(p sim.Proc) {
			fs, err := Format(p, d, Options{JournalBlocks: journal})
			if err != nil {
				t.Fatalf("Format: %v", err)
			}
			fs.Create(p, 1)
			addr, err := fs.WriteBlock(p, 1, 0, fill(5, 100), -1)
			if err != nil {
				t.Fatalf("WriteBlock: %v", err)
			}
			// On a journaled volume the block is a held tail: its image is
			// the journal's until the Sync writes it.
			cached := bytes.Clone(cachedImage(t, fs, addr))
			disk := bytes.Clone(d.Peek(int(addr)))
			got, _, err := fs.ReadBlock(p, 1, 0, addr)
			if err != nil {
				t.Fatalf("ReadBlock: %v", err)
			}
			for i := range got {
				got[i] = 0xEE
			}
			if !bytes.Equal(cachedImage(t, fs, addr), cached) || !bytes.Equal(d.Peek(int(addr)), disk) {
				t.Errorf("journal %d: scribbling over a read result changed the cached or the disk image", journal)
			}
			if again, _, _ := fs.ReadBlock(p, 1, 0, addr); !bytes.Equal(again, fill(5, 100)) {
				t.Errorf("journal %d: a second read sees the scribble", journal)
			}
		})
	}
}

// TestWriteArgumentsAreTheCallersOwn: scribbling over the heads and data
// passed to WriteBlockHead or AppendRun after the call returns changes
// nothing EFS keeps — the cache, the journal's held tail and deferred
// image, the disk. Every write kind runs on both volume kinds: an append, a
// run (whose last block a journaled volume holds), an append behind a held
// tail, an overwrite (a deferred image when journaled), and the rebuild of
// a corrupt block. Each block reads back as written before and after the
// journal commit, and after a remount.
func TestWriteArgumentsAreTheCallersOwn(t *testing.T) {
	headOf := func(bn int) []byte { return fill(byte(0x10+bn), 40) }
	dataOf := func(bn int) []byte { return fill(byte(bn+1), 60) }
	for _, journal := range []int{0, 32} {
		d := fastDisk(256)
		run(t, func(p sim.Proc) {
			fs, err := Format(p, d, Options{JournalBlocks: journal})
			if err != nil {
				t.Fatalf("Format: %v", err)
			}
			fs.Create(p, 1)
			want := map[uint32][]byte{}
			// scribble overwrites what a call was handed, after noting
			// what block bn must read back.
			scribble := func(bn uint32, parts ...[]byte) {
				want[bn] = bytes.Join(parts, nil)
				for _, b := range parts {
					for i := range b {
						b[i] = 0xEE
					}
				}
			}
			check := func(when string, fs *FS) {
				for bn := uint32(0); bn < uint32(len(want)); bn++ {
					got, addr, err := fs.ReadBlock(p, 1, bn, -1)
					if err != nil || !bytes.Equal(got, want[bn]) {
						t.Errorf("journal %d, %s: block %d = %v, %v; want %v", journal, when, bn, got[:min(len(got), 4)], err, want[bn][:4])
						continue
					}
					if when == "before the commit" {
						continue // a held tail and a deferred image are not on disk yet
					}
					if img := d.Peek(int(addr)); !bytes.Equal(img[HeaderBytes:HeaderBytes+len(want[bn])], want[bn]) {
						t.Errorf("journal %d, %s: disk image of block %d sees the caller's scribble", journal, when, bn)
					}
				}
			}

			head, data := headOf(0), dataOf(0)
			if _, err := fs.WriteBlockHead(p, 1, 0, head, data, -1); err != nil {
				t.Fatalf("WriteBlockHead append: %v", err)
			}
			scribble(0, head, data)
			heads := [][]byte{headOf(1), headOf(2), headOf(3)}
			datas := [][]byte{dataOf(1), dataOf(2), dataOf(3)}
			if _, err := fs.AppendRun(p, 1, 1, heads, datas); err != nil {
				t.Fatalf("AppendRun: %v", err)
			}
			for j := range heads {
				scribble(uint32(1+j), heads[j], datas[j])
			}
			// On a journaled volume block 3 is the held tail, written now
			// with its link to this append, which is held in turn.
			head, data = headOf(4), dataOf(4)
			if _, err := fs.WriteBlockHead(p, 1, 4, head, data, -1); err != nil {
				t.Fatalf("WriteBlockHead behind the tail: %v", err)
			}
			scribble(4, head, data)
			head, data = headOf(5), dataOf(5)
			if _, err := fs.WriteBlockHead(p, 1, 1, head, data, -1); err != nil {
				t.Fatalf("WriteBlockHead overwrite: %v", err)
			}
			scribble(1, head, data)
			check("before the commit", fs)
			if err := fs.Sync(p); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			check("after the commit", fs)

			_, addr, err := fs.ReadBlock(p, 1, 2, -1)
			if err != nil {
				t.Fatalf("ReadBlock 2: %v", err)
			}
			flipByte(t, p, fs, addr, HeaderBytes+50)
			fs.invalidate(addr)
			head, data = headOf(6), dataOf(6)
			if _, err := fs.WriteBlockHead(p, 1, 2, head, data, -1); err != nil {
				t.Fatalf("WriteBlockHead rebuild of corrupt block 2: %v", err)
			}
			scribble(2, head, data)
			if err := fs.Sync(p); err != nil {
				t.Fatalf("Sync after the rebuild: %v", err)
			}
			check("after the rebuild", fs)

			fs2, err := Mount(p, d, Options{JournalBlocks: journal})
			if err != nil {
				t.Fatalf("Mount: %v", err)
			}
			check("after a remount", fs2)
		})
	}
}

// TestFailedWriteThroughKeepsCacheEqualToDisk: when the disk fails a
// write-through — an overwrite, an append's tail link, a slow delete's flag
// clear — the cached image of the block is still the disk's, so the next
// read serves what the medium holds.
func TestFailedWriteThroughKeepsCacheEqualToDisk(t *testing.T) {
	steps := []struct {
		name   string
		victim func(addrs []int32) int32
		do     func(p sim.Proc, fs *FS) error
	}{
		{"overwrite", func(a []int32) int32 { return a[1] }, func(p sim.Proc, fs *FS) error {
			_, err := fs.WriteBlock(p, 1, 1, fill(9, 70), -1)
			return err
		}},
		{"tail link", func(a []int32) int32 { return a[2] }, func(p sim.Proc, fs *FS) error {
			_, err := fs.WriteBlock(p, 1, 3, fill(9, 70), -1)
			return err
		}},
		{"delete flag clear", func(a []int32) int32 { return a[0] }, func(p sim.Proc, fs *FS) error {
			_, err := fs.Delete(p, 1)
			return err
		}},
	}
	for _, s := range steps {
		d := fastDisk(256)
		run(t, func(p sim.Proc) {
			fs, err := Format(p, d, Options{})
			if err != nil {
				t.Fatalf("Format: %v", err)
			}
			fs.Create(p, 1)
			addrs, err := fs.AppendRun(p, 1, 0, nil, [][]byte{fill(1, 70), fill(2, 70), fill(3, 70)})
			if err != nil {
				t.Fatalf("AppendRun: %v", err)
			}
			victim := s.victim(addrs)
			before := bytes.Clone(d.Peek(int(victim)))
			d.SetFault(failWrite{bn: int(victim)}, "d")
			if err := s.do(p, fs); err == nil {
				t.Fatalf("%s: a write onto the failing block %d succeeded", s.name, victim)
			}
			d.SetFault(nil, "")
			if !bytes.Equal(d.Peek(int(victim)), before) {
				t.Fatalf("%s: the failed write changed the disk image", s.name)
			}
			if b, ok := fs.cache.peek(victim); ok && !bytes.Equal(b, before) {
				t.Errorf("%s: the cached image of block %d differs from the disk's after a failed write", s.name, victim)
			}
			for bn := uint32(0); bn < 3; bn++ {
				if got, _, err := fs.ReadBlock(p, 1, bn, -1); err != nil || !bytes.Equal(got, fill(byte(bn+1), 70)) {
					t.Errorf("%s: block %d after the failed write: %v", s.name, bn, err)
				}
			}
		})
	}
}

// sameTrackFile writes a four-block file onto a fresh unjournaled volume,
// syncs it, and remounts with a cold cache. It returns the new mount and the
// blocks' addresses, which share one track.
func sameTrackFile(t *testing.T, p sim.Proc, in *fault.Injector) (*FS, []int32) {
	t.Helper()
	d := fastDisk(256)
	in.AttachDisk(d, "d")
	fs, err := Format(p, d, Options{})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	fs.Create(p, 1)
	var addrs []int32
	for i := 0; i < 4; i++ {
		a, err := fs.WriteBlock(p, 1, uint32(i), fill(byte(i+1), 100), -1)
		if err != nil {
			t.Fatalf("WriteBlock %d: %v", i, err)
		}
		addrs = append(addrs, a)
	}
	if err := fs.Sync(p); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	perTrack := int32(d.Config().BlocksPerTrack)
	if addrs[0]/perTrack != addrs[3]/perTrack {
		t.Fatalf("blocks %v span two tracks; test setup wrong", addrs)
	}
	fs2, err := Mount(p, d, Options{})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs2, addrs
}

// TestLatentBadBlockNotServedThroughNeighbour: a latent bad block fails its
// reads until it is rewritten, even when a neighbour's track read has just
// passed over it — the track read keeps its bytes out of the cache rather
// than serving them later as a hit.
func TestLatentBadBlockNotServedThroughNeighbour(t *testing.T) {
	in := fault.New(1)
	run(t, func(p sim.Proc) {
		fs, addrs := sameTrackFile(t, p, in)
		in.BadBlock("d", int(addrs[1]))
		if got, _, err := fs.ReadBlock(p, 1, 0, -1); err != nil || !bytes.Equal(got, fill(1, 100)) {
			t.Fatalf("block 0, beside the bad block: %v", err)
		}
		if _, ok := fs.cache.peek(addrs[1]); ok {
			t.Errorf("the track read cached latent bad block %d", addrs[1])
		}
		if _, _, err := fs.ReadBlock(p, 1, 1, -1); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("read of latent bad block 1 = %v, want the injected fault", err)
		}
		if got, _, err := fs.ReadBlock(p, 1, 2, -1); err != nil || !bytes.Equal(got, fill(3, 100)) {
			t.Errorf("block 2, cached by the same track read: %v", err)
		}
	})
}

// TestBitrotCaughtWithoutACopy: a seeded bit flip applied by the device's
// Corrupter during a track read reaches the cache in the rotted image, and
// the checksum, verified on the cache's own image, still catches it —
// whether the rotted block was the one read or its neighbour.
func TestBitrotCaughtWithoutACopy(t *testing.T) {
	for _, rotted := range []int{0, 2} {
		t.Run(fmt.Sprintf("block%d", rotted), func(t *testing.T) {
			in := fault.New(1)
			run(t, func(p sim.Proc) {
				fs, addrs := sameTrackFile(t, p, in)
				in.Bitrot("d", int(addrs[rotted]))
				for bn := uint32(0); bn < 4; bn++ {
					got, _, err := fs.ReadBlock(p, 1, bn, -1)
					if int(bn) == rotted {
						if !errors.Is(err, ErrCorrupt) {
							t.Errorf("read of rotted block %d = %v, want ErrCorrupt", bn, err)
						}
						continue
					}
					if err != nil || !bytes.Equal(got, fill(byte(bn+1), 100)) {
						t.Errorf("block %d beside the rot: %v", bn, err)
					}
				}
				if got := in.Stats().Get("fault.disk_bitrot"); got != 1 {
					t.Errorf("fault.disk_bitrot = %d, want 1", got)
				}
			})
		})
	}
}
