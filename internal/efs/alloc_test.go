package efs

import (
	"math/rand"
	"testing"

	"bridge/internal/disk"
	"bridge/internal/israce"
	"bridge/internal/sim"
)

// The allocation gates below pin the block-buffer discipline: a disk image
// lives on the medium, a cached image in its cache slot, a deferred image in
// the journal, and the only copy EFS makes is the one ReadBlock hands out.
// Counts are exact, so a stray 1 KB copy on any of these paths fails here.

// skipUnderRace skips allocation gates: the race detector's instrumentation
// allocates.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// TestAllocsCachePutFull: inserting into a full cache reuses the evicted
// entry's slot and its block buffer.
func TestAllocsCachePutFull(t *testing.T) {
	skipUnderRace(t)
	const capacity = 16
	c := newBlockCache(capacity)
	buf := randomBlock(rand.New(rand.NewSource(1)))
	addr := int32(0)
	for ; addr < capacity; addr++ {
		c.put(addr, buf)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.put(addr, buf)
		addr++
	})
	if allocs != 0 || c.len() != capacity {
		t.Errorf("put into a full cache allocates %v objects and leaves %d entries, want 0 and %d", allocs, c.len(), capacity)
	}
}

// TestAllocsReadCachedHit: a block-cache hit allocates nothing inside EFS —
// the image is lent read-only, and the hit counter needs no registry lookup
// and no list node — while a ReadBlock hit pays exactly one object, the copy
// that leaves EFS as the reply.
func TestAllocsReadCachedHit(t *testing.T) {
	skipUnderRace(t)
	d := fastDisk(256)
	run(t, func(p sim.Proc) {
		fs, err := Format(p, d, Options{})
		if err != nil {
			t.Errorf("Format: %v", err)
			return
		}
		if err := fs.Create(p, 1); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		addr, err := fs.WriteBlock(p, 1, 0, fill(1, 100), -1)
		if err != nil {
			t.Errorf("WriteBlock: %v", err)
			return
		}
		hits := fs.Stats().Get("efs.cache_hits")
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := fs.readCached(p, addr); err != nil {
				t.Errorf("readCached: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("a readCached hit allocates %v objects, want 0", allocs)
		}
		if got := fs.Stats().Get("efs.cache_hits") - hits; got != 1001 {
			t.Errorf("efs.cache_hits rose by %d over 1001 hits", got)
		}
		allocs = testing.AllocsPerRun(1000, func() {
			if _, _, err := fs.ReadBlock(p, 1, 0, addr); err != nil {
				t.Errorf("ReadBlock: %v", err)
			}
		})
		if allocs != 1 {
			t.Errorf("a ReadBlock hit allocates %v objects, want 1 (the reply's copy)", allocs)
		}
	})
}

// warmVolume formats an unjournaled volume with a cache of cacheBlocks,
// then writes and fast-deletes a file of n blocks, n at least the cache's
// capacity: every cache slot now owns its buffer, and the first n data
// blocks are free but have a stable image on the device. Reads and writes there
// have nothing left to allocate but what they hand out.
func warmVolume(t *testing.T, p sim.Proc, cacheBlocks, n int) *FS {
	t.Helper()
	fs, err := Format(p, fastDisk(n+256), Options{CacheBlocks: cacheBlocks})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	churn(t, p, fs, n)
	return fs
}

// warmJournaled is warmVolume for a journaled volume over a write-back
// device, churned twice with a barrier after each: the second barrier
// displaces the first pass's stable images, and the device's write cache
// buffers the next n first writes in them.
func warmJournaled(t *testing.T, p sim.Proc, cacheBlocks, n, journal int) *FS {
	t.Helper()
	d := disk.New(disk.Config{NumBlocks: n + 256, Timing: disk.FixedTiming{}, WriteBack: true})
	fs, err := Format(p, d, Options{CacheBlocks: cacheBlocks, JournalBlocks: journal})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	for range 2 {
		churn(t, p, fs, n)
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	return fs
}

// churn writes a file of n blocks and fast-deletes it.
func churn(t *testing.T, p sim.Proc, fs *FS, n int) {
	t.Helper()
	if err := fs.Create(p, 99); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := fs.AppendRun(p, 99, 0, nil, blocksOf(n, 1)); err != nil {
		t.Fatalf("AppendRun: %v", err)
	}
	if _, err := fs.DeleteFast(p, 99); err != nil {
		t.Fatalf("DeleteFast: %v", err)
	}
}

// blocksOf returns n blocks of data, each 40 bytes of b.
func blocksOf(n int, b byte) [][]byte {
	datas := make([][]byte, n)
	for i := range datas {
		datas[i] = fill(b, 40)
	}
	return datas
}

// fileOf creates file id with n blocks and returns their addresses.
func fileOf(t *testing.T, p sim.Proc, fs *FS, id uint32, n int) []int32 {
	t.Helper()
	if err := fs.Create(p, id); err != nil {
		t.Fatalf("Create %d: %v", id, err)
	}
	addrs, err := fs.AppendRun(p, id, 0, nil, blocksOf(n, byte(id)))
	if err != nil {
		t.Fatalf("AppendRun %d: %v", id, err)
	}
	return addrs
}

// TestAllocsTrackReadMiss: a ReadBlock that misses the cache reads a whole
// track, and the track's images are copied into slots the cache already
// owns, so the read allocates one object — the reply's copy — not one per
// block of the track.
func TestAllocsTrackReadMiss(t *testing.T) {
	skipUnderRace(t)
	const runs, perTrack = 50, 8
	run(t, func(p sim.Proc) {
		fs := warmVolume(t, p, 2*perTrack, perTrack*(runs+2))
		addrs := fileOf(t, p, fs, 1, perTrack*(runs+2))
		misses := fs.Stats().Get("efs.cache_misses")
		next := 0 // one block per track, from the file's cold front
		allocs := testing.AllocsPerRun(runs, func() {
			if _, _, err := fs.ReadBlock(p, 1, uint32(next), addrs[next]); err != nil {
				t.Errorf("ReadBlock %d: %v", next, err)
			}
			next += perTrack
		})
		if got := fs.Stats().Get("efs.cache_misses") - misses; got != runs+1 {
			t.Fatalf("%d reads missed the cache %d times; test setup wrong", runs+1, got)
		}
		if allocs != 1 {
			t.Errorf("a track-read miss allocates %v objects, want 1 (the reply's copy)", allocs)
		}
	})
}

// TestAllocsWalkAndDeleteOverCachedBlocks: walking a chain of cached blocks
// reads every link through the cache's own images, and deleting a cached
// file — fast, or with the per-block flag clear written through over the
// block's existing disk image — allocates nothing at all.
func TestAllocsWalkAndDeleteOverCachedBlocks(t *testing.T) {
	skipUnderRace(t)
	const runs, k = 10, 16
	run(t, func(p sim.Proc) {
		fs := warmVolume(t, p, 1024, 1024)
		fileOf(t, p, fs, 1, 2*k)
		bb, i, err := fs.findEntry(p, 1)
		if err != nil {
			t.Fatalf("findEntry: %v", err)
		}
		e := &bb.b.Entries[i]
		steps := fs.Stats().Get("efs.walk_steps")
		allocs := testing.AllocsPerRun(runs, func() {
			delete(fs.loc, fileKey{fileID: 1, blockNum: k}) // force the walk
			if _, _, err := fs.findBlock(p, e, 1, k, nilAddr); err != nil {
				t.Errorf("findBlock: %v", err)
			}
		})
		if got := fs.Stats().Get("efs.walk_steps") - steps; got < k*(runs+1)/2 {
			t.Fatalf("%d lookups walked %d steps; test setup wrong", runs+1, got)
		}
		if allocs != 0 {
			t.Errorf("a %d-step walk over cached blocks allocates %v objects, want 0", k/2, allocs)
		}

		for _, fast := range []bool{true, false} {
			ids := make([]uint32, runs+1)
			for j := range ids {
				ids[j] = uint32(100 + j)
				fileOf(t, p, fs, ids[j], k)
			}
			misses := fs.Stats().Get("efs.cache_misses")
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				var err error
				if fast {
					_, err = fs.DeleteFast(p, ids[next])
				} else {
					_, err = fs.Delete(p, ids[next])
				}
				if err != nil {
					t.Errorf("delete %d: %v", ids[next], err)
				}
				next++
			})
			if got := fs.Stats().Get("efs.cache_misses") - misses; got != 0 {
				t.Fatalf("deletes missed the cache %d times; test setup wrong", got)
			}
			if allocs != 0 {
				t.Errorf("deleting (fast %v) a cached %d-block file allocates %v objects, want 0", fast, k, allocs)
			}
		}
	})
}

// TestAllocsHintedWalk: a lookup whose valid hint is the nearest anchor
// walks from the hint over cached blocks, and weighing the hint against the
// file's two ends allocates nothing — the candidates are an array, not a
// slice the hint is appended to.
func TestAllocsHintedWalk(t *testing.T) {
	skipUnderRace(t)
	const runs, k = 10, 16
	run(t, func(p sim.Proc) {
		fs := warmVolume(t, p, 1024, 1024)
		addrs := fileOf(t, p, fs, 1, 2*k)
		bb, i, err := fs.findEntry(p, 1)
		if err != nil {
			t.Fatalf("findEntry: %v", err)
		}
		e := &bb.b.Entries[i]
		steps := fs.Stats().Get("efs.walk_steps")
		allocs := testing.AllocsPerRun(runs, func() {
			delete(fs.loc, fileKey{fileID: 1, blockNum: k}) // force the walk
			if addr, _, err := fs.findBlock(p, e, 1, k, addrs[k-2]); err != nil || addr != addrs[k] {
				t.Errorf("findBlock = %d, %v; want %d", addr, err, addrs[k])
			}
		})
		if got := fs.Stats().Get("efs.walk_steps") - steps; got != 2*(runs+1) {
			t.Fatalf("%d hinted lookups walked %d steps, want 2 each; test setup wrong", runs+1, got)
		}
		if allocs != 0 {
			t.Errorf("a hinted 2-step walk allocates %v objects, want 0", allocs)
		}
	})
}

// TestAllocsWriteThroughAppend: a one-block append on an unjournaled volume
// encodes the new block in the volume's scratch block, writes it and the old
// tail's new link through over images the device already holds, and copies
// both into cache slots that own a buffer: no allocation at all.
func TestAllocsWriteThroughAppend(t *testing.T) {
	skipUnderRace(t)
	const runs = 100
	run(t, func(p sim.Proc) {
		fs := warmVolume(t, p, 128, 4*runs)
		fileOf(t, p, fs, 1, 1)
		data := fill(7, 500)
		n := uint32(1)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := fs.WriteBlock(p, 1, n, data, nilAddr); err != nil {
				t.Errorf("append %d: %v", n, err)
			}
			n++
		})
		if allocs != 0 {
			t.Errorf("a write-through one-block append allocates %v objects, want 0", allocs)
		}
		if rep, err := fs.Check(p); err != nil || !rep.OK() {
			t.Errorf("fsck after the appends: %v %v", err, rep.Problems)
		}
	})
}

// TestAllocsAppendRunGathered: a run of 8 appended onto a file gathers its
// images in the volume's track scratch, not in a buffer per block. On an
// unjournaled volume over images the device already holds, that leaves the
// address list AppendRun hands back. A journaled volume adds its held tail;
// its write cache buffers each block in a stable image that a barrier
// displaced, where a buffer of its own would cost 8 objects more a run.
func TestAllocsAppendRunGathered(t *testing.T) {
	skipUnderRace(t)
	const runs = 20
	for _, c := range []struct {
		journal int
		want    float64
	}{{0, 1}, {32, 2}} {
		run(t, func(p sim.Proc) {
			var fs *FS
			if c.journal == 0 {
				fs = warmVolume(t, p, 128, 8*(runs+2))
			} else {
				fs = warmJournaled(t, p, 128, 8*(runs+2), c.journal)
			}
			fileOf(t, p, fs, 1, 1)
			datas := blocksOf(8, 7)
			n := uint32(1)
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := fs.AppendRun(p, 1, n, nil, datas); err != nil {
					t.Errorf("append at %d: %v", n, err)
				}
				n += 8
			})
			if allocs > c.want {
				t.Errorf("journal %d: a run of 8 allocates %v objects, want at most %v", c.journal, allocs, c.want)
			}
			if rep, err := fs.Check(p); err != nil || !rep.OK() {
				t.Errorf("journal %d: fsck after the appends: %v %v", c.journal, err, rep.Problems)
			}
		})
	}
}
