package efs

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bridge/internal/sim"
)

// TestBlockSumIsTheOnDiskFormat pins blockSum to its definition — CRC-32C
// over the little-endian address, then the image with the checksum field
// read as zero — computed the plain way with crc32.Update. blockSum's
// table-stepped words exist only to keep that off the heap; a volume sealed
// by either must verify under the other.
func TestBlockSumIsTheOnDiskFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, BlockSize)
	for i := 0; i < 200; i++ {
		rng.Read(buf)
		addr := int32(rng.Uint32())
		for _, off := range []int{dataSumOff, superSumOff, bucketSumOff} {
			var word [4]byte
			binary.LittleEndian.PutUint32(word[:], uint32(addr))
			want := crc32.Update(0, crcTable, word[:])
			want = crc32.Update(want, crcTable, buf[:off])
			want = crc32.Update(want, crcTable, make([]byte, 4))
			want = crc32.Update(want, crcTable, buf[off+4:])
			if got := blockSum(addr, buf, off); got != want {
				t.Fatalf("blockSum(%d, _, %d) = %#x, want %#x", addr, off, got, want)
			}
		}
	}
}

// flipByte mutates one stored byte of block addr directly on the device,
// simulating silent bit rot (no error, wrong contents).
func flipByte(t *testing.T, p sim.Proc, fs *FS, addr int32, off int) {
	t.Helper()
	raw, err := fs.d.ReadBlock(p, int(addr))
	if err != nil {
		t.Fatalf("reading block %d to corrupt it: %v", addr, err)
	}
	raw[off] ^= 0x40
	if err := fs.d.WriteBlock(p, int(addr), raw); err != nil {
		t.Fatalf("writing corrupted block %d: %v", addr, err)
	}
}

func TestChecksumDetectsBitrot(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 7); err != nil {
			t.Fatalf("Create: %v", err)
		}
		var addrs []int32
		for i := 0; i < 3; i++ {
			a, err := fs.WriteBlock(p, 7, uint32(i), fill(byte(i+1), 100), -1)
			if err != nil {
				t.Fatalf("WriteBlock %d: %v", i, err)
			}
			addrs = append(addrs, a)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		flipByte(t, p, fs, addrs[1], HeaderBytes+10)

		// A fresh mount has a cold cache, so the read hits the medium.
		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		_, _, err = fs2.ReadBlock(p, 7, 1, -1)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadBlock of rotted block: err = %v, want ErrCorrupt", err)
		}
		if !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("error %q does not mention the checksum", err)
		}
		// Unaffected blocks still read fine.
		if _, _, err := fs2.ReadBlock(p, 7, 0, -1); err != nil {
			t.Errorf("ReadBlock of clean block: %v", err)
		}
	})
}

func TestChecksumDetectsMisdirectedWrite(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		// Two files whose block 0 headers are both (fileID, 0)-consistent;
		// copy one file's image over the other's address. Every field in
		// the copied block is internally valid — only the address seed in
		// the checksum gives the misdirection away at the loc/hint layer.
		for _, id := range []uint32{1, 2} {
			if err := fs.Create(p, id); err != nil {
				t.Fatalf("Create %d: %v", id, err)
			}
		}
		a1, err := fs.WriteBlock(p, 1, 0, fill(0xAA, 200), -1)
		if err != nil {
			t.Fatalf("WriteBlock file 1: %v", err)
		}
		a2, err := fs.WriteBlock(p, 2, 0, fill(0xBB, 200), -1)
		if err != nil {
			t.Fatalf("WriteBlock file 2: %v", err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		img, err := fs.d.ReadBlock(p, int(a1))
		if err != nil {
			t.Fatalf("reading source image: %v", err)
		}
		// Misdirect: file 1's sealed image lands on file 2's block.
		if err := fs.d.WriteBlock(p, int(a2), img); err != nil {
			t.Fatalf("misdirecting write: %v", err)
		}

		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		_, _, err = fs2.ReadBlock(p, 2, 0, -1)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadBlock of misdirected block: err = %v, want ErrCorrupt", err)
		}
	})
}

func TestChecksumDetectsDirectoryCorruption(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{DirBuckets: 4})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 9); err != nil {
			t.Fatalf("Create: %v", err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		bucket := int32(1 + bucketFor(9, 4))
		flipByte(t, p, fs, bucket, 12)

		fs2, err := Mount(p, d, Options{})
		if err != nil {
			t.Fatalf("Mount: %v", err)
		}
		_, err = fs2.Stat(p, 9)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Stat via rotted bucket: err = %v, want ErrCorrupt", err)
		}
		if !strings.Contains(err.Error(), "directory bucket") {
			t.Errorf("error %q does not name the directory bucket", err)
		}
	})
}

func TestScrubFindsCorruptionAndCleanRescrub(t *testing.T) {
	d := fastDisk(512)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 3); err != nil {
			t.Fatalf("Create: %v", err)
		}
		var addrs []int32
		for i := 0; i < 4; i++ {
			a, err := fs.WriteBlock(p, 3, uint32(i), fill(byte(i), 64), -1)
			if err != nil {
				t.Fatalf("WriteBlock %d: %v", i, err)
			}
			addrs = append(addrs, a)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		flipByte(t, p, fs, addrs[0], HeaderBytes)
		flipByte(t, p, fs, addrs[2], HeaderBytes+500)

		rep, err := fs.ScrubAll(p)
		if err != nil {
			t.Fatalf("ScrubAll: %v", err)
		}
		if !rep.Wrapped {
			t.Errorf("full sweep did not wrap")
		}
		if len(rep.Errors) != 2 {
			t.Fatalf("scrub found %d errors (%v), want 2", len(rep.Errors), rep.Errors)
		}
		for _, se := range rep.Errors {
			if se.Kind != "checksum" {
				t.Errorf("scrub error kind %q, want checksum", se.Kind)
			}
			if se.FileID != 3 {
				t.Errorf("scrub error file id %d, want 3", se.FileID)
			}
		}

		// Rewriting the damaged blocks through the FS reseals them...
		for _, bn := range []uint32{0, 2} {
			if _, err := fs.WriteBlock(p, 3, bn, fill(0xCC, 64), -1); err != nil {
				t.Fatalf("repair rewrite of block %d: %v", bn, err)
			}
		}
		// ...and a second full sweep comes back clean.
		rep2, err := fs.ScrubAll(p)
		if err != nil {
			t.Fatalf("second ScrubAll: %v", err)
		}
		if len(rep2.Errors) != 0 {
			t.Fatalf("post-repair scrub still reports %v", rep2.Errors)
		}
		if rep2.Scanned == 0 {
			t.Errorf("post-repair scrub scanned nothing")
		}
	})
}

func TestScrubStepHonorsBudget(t *testing.T) {
	d := newDisk(512) // 15 ms per access: the budget bites
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 5); err != nil {
			t.Fatalf("Create: %v", err)
		}
		for i := 0; i < 20; i++ {
			if _, err := fs.WriteBlock(p, 5, uint32(i), fill(1, 10), -1); err != nil {
				t.Fatalf("WriteBlock %d: %v", i, err)
			}
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		rep, err := fs.ScrubStep(p, 40*time.Millisecond)
		if err != nil {
			t.Fatalf("ScrubStep: %v", err)
		}
		if rep.Wrapped {
			t.Fatalf("a 40 ms budget swept the whole volume")
		}
		if rep.Scanned == 0 || rep.Scanned > 5 {
			t.Errorf("budgeted step scanned %d blocks, want 1..5", rep.Scanned)
		}
		// Steps make progress and eventually wrap.
		wrapped := false
		for i := 0; i < 600 && !wrapped; i++ {
			r, err := fs.ScrubStep(p, 40*time.Millisecond)
			if err != nil {
				t.Fatalf("ScrubStep %d: %v", i, err)
			}
			wrapped = r.Wrapped
		}
		if !wrapped {
			t.Errorf("incremental steps never completed a sweep")
		}
	})
}
