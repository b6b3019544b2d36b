// Package efs implements the Elementary File System: the local file system
// that runs on each Bridge node, modeled on the Cronus EFS the paper built
// upon. It is deliberately simple, exactly as the paper describes:
//
//   - a flat namespace of numeric file ids, hashed into a directory;
//   - files represented as doubly linked circular lists of 1 KB blocks,
//     each block carrying its file number, block number, and neighbor
//     pointers in a 24-byte header;
//   - stateless operation: every request is self-contained and may carry a
//     disk-address hint; lookups walk the linked list from the closest of
//     the file's first block, last block, and the hint;
//   - a cache of recently-accessed blocks with full-track read-ahead, which
//     is what makes average sequential-read time "substantially less than
//     disk latency".
//
// One deviation from a strict circular list: the first block's prev pointer
// is not rewritten on every append (that would cost an extra disk access
// per append). The directory entry is the authoritative source of the
// first/last block addresses, and backward walks stop at block 0.
package efs

import (
	"fmt"
	"sort"

	"bridge/internal/disk"
	"bridge/internal/obs"
	"bridge/internal/sim"
	"bridge/internal/stats"
)

// Options configures volume geometry at Format time and runtime knobs at
// Mount time.
type Options struct {
	// DirBuckets is the number of directory hash buckets. Default 16.
	DirBuckets int
	// CacheBlocks is the block cache capacity. Default
	// DefaultCacheBlocks.
	CacheBlocks int
	// JournalBlocks reserves a write-ahead intent journal of this many
	// blocks at the end of the device (see journal.go); 0 disables
	// journaling. Format only — mounts read the size from the superblock.
	JournalBlocks int
	// Metrics receives the bridge.journal_* / bridge.recovery_* counters;
	// nil registers them on the FS's private stats registry.
	Metrics *obs.Registry
}

// DefaultCacheBlocks is the block cache capacity a volume gets when its
// Options name none: sixteen tracks.
const DefaultCacheBlocks = 128

func (o *Options) applyDefaults() {
	if o.DirBuckets <= 0 {
		o.DirBuckets = 16
	}
	if o.CacheBlocks <= 0 {
		o.CacheBlocks = DefaultCacheBlocks
	}
}

// FileInfo describes one file.
type FileInfo struct {
	FileID uint32
	Blocks int
	First  int32
	Last   int32
}

// FS is a mounted EFS volume. An FS is owned by a single LFS server
// process; it is not safe for concurrent use.
type FS struct {
	d     *disk.Disk
	sb    superblock
	bm    *bitmap
	cache *blockCache
	loc   map[fileKey]int32
	// scratch is the block the volume encodes an image in when the disk
	// and the cache, which each copy what they keep, are its only readers.
	scratch []byte
	// track holds one track of such images, gathered for one disk write
	// run: run.n images of consecutive blocks from run.first (see
	// gatherBuf).
	track [][]byte
	run   struct {
		first int32
		n     int
	}
	// buckets caches directory bucket chains by home bucket index.
	buckets map[int]*bucketChain
	dirty   struct {
		super  bool
		bitmap bool
	}
	// scrubNext is the incremental scrubber's cursor (next block address to
	// examine); see scrub.go.
	scrubNext int32
	stats     *stats.Counters
	m         fsMetrics
	// jnl is the write-ahead intent journal state; nil on unjournaled
	// volumes. replay describes the journal replay done at mount, if any.
	jnl    *journal
	replay *ReplayStats
}

// fsMetrics are the volume's per-block counters as typed handles on the
// registry behind Stats, registered once so the read path neither locks the
// registry nor hashes a name.
type fsMetrics struct {
	cacheHits, cacheMisses, locHits, walks, walkSteps obs.Counter
}

func newFSMetrics(reg *obs.Registry) fsMetrics {
	return fsMetrics{
		cacheHits:   reg.Counter("efs.cache_hits", "blocks", "block reads served by the block cache or a deferred journal write"),
		cacheMisses: reg.Counter("efs.cache_misses", "blocks", "block reads that went to disk for the whole track"),
		locHits:     reg.Counter("efs.loc_hits", "blocks", "block lookups resolved by the location map without a walk"),
		walks:       reg.Counter("efs.walks", "ops", "block lookups that walked the file's linked list"),
		walkSteps:   reg.Counter("efs.walk_steps", "blocks", "links followed by list walks"),
	}
}

// bucketChain is a loaded directory bucket plus its overflow blocks.
type bucketChain struct {
	blocks []*bucketBlock
}

type bucketBlock struct {
	addr  int32
	b     dirBucket
	dirty bool
}

// Format initializes a fresh volume on d and returns it mounted.
func Format(p sim.Proc, d *disk.Disk, opts Options) (*FS, error) {
	opts.applyDefaults()
	n := d.Config().NumBlocks
	if d.Config().BlockSize != BlockSize {
		return nil, fmt.Errorf("efs: disk block size %d, want %d", d.Config().BlockSize, BlockSize)
	}
	bitmapBlocks := (n + bitsPerBitmapBlock - 1) / bitsPerBitmapBlock
	dataStart := 1 + opts.DirBuckets + bitmapBlocks
	if opts.JournalBlocks > 0 && opts.JournalBlocks < minJournalBlocks(bitmapBlocks) {
		return nil, fmt.Errorf("efs: journal of %d blocks too small, minimum %d", opts.JournalBlocks, minJournalBlocks(bitmapBlocks))
	}
	if dataStart+opts.JournalBlocks >= n {
		return nil, fmt.Errorf("efs: volume too small: %d blocks, %d needed for metadata", n, dataStart+opts.JournalBlocks)
	}
	st := stats.New()
	fs := &FS{
		d: d,
		sb: superblock{
			NumBlocks:     uint32(n),
			DirBuckets:    uint32(opts.DirBuckets),
			BitmapBlocks:  uint32(bitmapBlocks),
			DataStart:     uint32(dataStart),
			JournalBlocks: uint32(opts.JournalBlocks),
		},
		bm:      newBitmap(n),
		cache:   newBlockCache(opts.CacheBlocks),
		loc:     make(map[fileKey]int32),
		scratch: make([]byte, BlockSize),
		track:   newTrack(d.Config().BlocksPerTrack),
		buckets: make(map[int]*bucketChain),
		stats:   st,
		m:       newFSMetrics(st.Registry()),
	}
	for i := 0; i < dataStart; i++ {
		fs.bm.set(i)
	}
	// The journal region is permanently reserved in the bitmap.
	for i := n - opts.JournalBlocks; i < n; i++ {
		fs.bm.set(i)
	}
	// Write empty directory buckets, the bitmap and the journal header;
	// preload the bucket cache so Create on a fresh volume needs no
	// directory reads. The superblock goes last, after a barrier: it is the
	// format's commit point, so a device whose format never reached its
	// last barrier has none and Mount reports ErrUnformatted.
	empty := make([]byte, BlockSize)
	encodeBucket(empty, dirBucket{Overflow: nilAddr})
	for i := 0; i < opts.DirBuckets; i++ {
		// The checksum is seeded with the disk address, so each bucket
		// needs its own sealed image.
		seal(int32(1+i), empty, bucketSumOff)
		if err := d.WriteBlock(p, 1+i, empty); err != nil {
			return nil, fmt.Errorf("efs: formatting directory: %w", err)
		}
		fs.buckets[i] = &bucketChain{blocks: []*bucketBlock{{
			addr: int32(1 + i),
			b:    dirBucket{Overflow: nilAddr},
		}}}
	}
	if err := fs.flushBitmap(p); err != nil {
		return nil, err
	}
	if opts.JournalBlocks > 0 {
		reg := opts.Metrics
		if reg == nil {
			reg = fs.stats.Registry()
		}
		fs.jnl = newJournal(fs.sb, newJMetrics(reg))
		if err := writeJournalHeader(p, d, fs.jnl.end, fs.sb.JournalBlocks, fs.jnl.epoch); err != nil {
			return nil, err
		}
	}
	if err := d.Sync(p); err != nil {
		return nil, fmt.Errorf("efs: format barrier: %w", err)
	}
	buf := make([]byte, BlockSize)
	encodeSuper(buf, fs.sb)
	seal(0, buf, superSumOff)
	if err := d.WriteBlock(p, 0, buf); err != nil {
		return nil, fmt.Errorf("efs: formatting superblock: %w", err)
	}
	// A fresh volume starts stable.
	if err := d.Sync(p); err != nil {
		return nil, fmt.Errorf("efs: format barrier: %w", err)
	}
	return fs, nil
}

// Mount opens an existing volume on d: it reads the superblock and the
// free-space bitmap; directory buckets load lazily. On journaled volumes
// the journal is replayed first — see mountJournal.
func Mount(p sim.Proc, d *disk.Disk, opts Options) (*FS, error) {
	opts.applyDefaults()
	if d.Config().BlockSize != BlockSize {
		return nil, fmt.Errorf("efs: disk block size %d, want %d", d.Config().BlockSize, BlockSize)
	}
	st := stats.New()
	reg := opts.Metrics
	if reg == nil {
		reg = st.Registry()
	}
	sb, replay, epoch, err := mountJournal(p, d, reg)
	if err != nil {
		return nil, err
	}
	if int(sb.NumBlocks) != d.Config().NumBlocks {
		return nil, fmt.Errorf("%w: superblock capacity %d, disk %d", ErrCorrupt, sb.NumBlocks, d.Config().NumBlocks)
	}
	fs := &FS{
		d:       d,
		sb:      sb,
		bm:      newBitmap(int(sb.NumBlocks)),
		cache:   newBlockCache(opts.CacheBlocks),
		loc:     make(map[fileKey]int32),
		scratch: make([]byte, BlockSize),
		track:   newTrack(d.Config().BlocksPerTrack),
		buckets: make(map[int]*bucketChain),
		stats:   st,
		m:       newFSMetrics(st.Registry()),
		replay:  replay,
	}
	if sb.JournalBlocks > 0 {
		fs.jnl = newJournal(sb, newJMetrics(reg))
		fs.jnl.epoch = epoch
	}
	bmBlocks := make([][]byte, sb.BitmapBlocks)
	for i := range bmBlocks {
		addr := 1 + int(sb.DirBuckets) + i
		b, err := d.ReadBlock(p, addr)
		if err != nil {
			return nil, fmt.Errorf("efs: reading bitmap: %w", err)
		}
		if !sumOK(int32(addr), b, bitmapSumOff) {
			return nil, fmt.Errorf("%w: bitmap checksum mismatch at block %d", ErrCorrupt, addr)
		}
		bmBlocks[i] = b
	}
	fs.bm.decodeFrom(bmBlocks)
	return fs, nil
}

// Stats returns the volume's counters (cache hits/misses, list-walk steps).
func (fs *FS) Stats() *stats.Counters { return fs.stats }

// Disk returns the underlying device.
func (fs *FS) Disk() *disk.Disk { return fs.d }

// FreeBlocks returns the number of unallocated blocks.
func (fs *FS) FreeBlocks() int { return fs.bm.free() }

// DataStart returns the first data-region block address.
func (fs *FS) DataStart() int { return int(fs.sb.DataStart) }

// readCached returns the image of block addr through the cache; a miss
// reads the whole containing track (full-track buffering). The image is the
// cache's own buffer, or the journal's for a deferred write: the caller must
// not change it, and it is valid only until the next call that touches the
// cache. A caller that hands the bytes out or changes them copies first.
func (fs *FS) readCached(p sim.Proc, addr int32) ([]byte, error) {
	// A deferred (journaled but uncommitted) home write is authoritative:
	// the on-disk copy — and any cached copy refreshed from a track read —
	// is stale until the next commit applies it.
	if fs.jnl != nil {
		if b, ok := fs.jnl.data[addr]; ok {
			fs.m.cacheHits.Add(1)
			return b, nil
		}
	}
	if b, ok := fs.cache.get(addr); ok {
		fs.m.cacheHits.Add(1)
		return b, nil
	}
	fs.m.cacheMisses.Add(1)
	// A cache smaller than a track can lose addr to the rest of its own
	// track; the caller then gets a copy of its own.
	var own []byte
	small := fs.cache.cap < fs.d.Config().BlocksPerTrack
	err := fs.d.ReadTrack(p, int(addr), func(bn int, img []byte) {
		fs.cacheInsert(int32(bn), img)
		if small && int32(bn) == addr {
			own = append([]byte(nil), img...)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("efs: reading block %d: %w", addr, err)
	}
	if b, ok := fs.cache.peek(addr); ok {
		return b, nil
	}
	if own == nil {
		return nil, fmt.Errorf("%w: track read missed block %d", ErrCorrupt, addr)
	}
	return own, nil
}

// writeThrough writes a block to disk and refreshes the cache. Data-block
// writes in EFS are write-through; only directory and bitmap metadata are
// written behind (flushed on Sync). The block image is sealed here so every
// data-block write path stamps a checksum. The disk and the cache each copy
// data, so the caller may reuse it (the scratch block) once this returns;
// a failed write leaves the cached image alone.
func (fs *FS) writeThrough(p sim.Proc, addr int32, data []byte) error {
	seal(addr, data, dataSumOff)
	if err := fs.d.WriteBlock(p, int(addr), data); err != nil {
		return fmt.Errorf("efs: writing block %d: %w", addr, err)
	}
	fs.cacheInsert(addr, data)
	return nil
}

// newTrack returns n block images carved from one allocation.
func newTrack(n int) [][]byte {
	buf := make([]byte, n*BlockSize)
	t := make([][]byte, n)
	for i := range t {
		t[i] = buf[i*BlockSize : (i+1)*BlockSize : (i+1)*BlockSize]
	}
	return t
}

// gatherBuf returns the buffer to build data block addr's image in, the
// next one of the track scratch. The images gathered since the last
// writeRun are a run of consecutive blocks on one track; an addr that does
// not extend the run writes it first.
func (fs *FS) gatherBuf(p sim.Proc, addr int32) ([]byte, error) {
	r := &fs.run
	if r.n > 0 && (addr != r.first+int32(r.n) || int(addr)%len(fs.track) == 0) {
		if err := fs.writeRun(p); err != nil {
			return nil, err
		}
	}
	if r.n == 0 {
		r.first = addr
	}
	r.n++
	return fs.track[r.n-1], nil
}

// writeRun seals the gathered images, writes them to disk with one access
// and caches them, as writeThrough does one block; the gather is empty
// afterwards whether or not the write landed.
func (fs *FS) writeRun(p sim.Proc) error {
	first, imgs := fs.run.first, fs.track[:fs.run.n]
	fs.run.n = 0
	if len(imgs) == 0 {
		return nil
	}
	for i, b := range imgs {
		seal(first+int32(i), b, dataSumOff)
	}
	if err := fs.d.WriteRun(p, int(first), imgs); err != nil {
		return fmt.Errorf("efs: writing blocks %d..%d: %w", first, first+int32(len(imgs))-1, err)
	}
	for i, b := range imgs {
		fs.cacheInsert(first+int32(i), b)
	}
	return nil
}

// cacheInsert copies a block into the cache and maintains the location map.
func (fs *FS) cacheInsert(addr int32, data []byte) {
	evicted, hasEvicted, learned, hasLearned := fs.cache.put(addr, data)
	if hasEvicted {
		delete(fs.loc, evicted)
	}
	// Only data-region blocks can teach file locations.
	if hasLearned && int(addr) >= int(fs.sb.DataStart) {
		fs.loc[learned] = addr
	}
}

// imageBuf returns the buffer to build a data block image in: the scratch
// block when the image goes to the disk and the cache, a fresh one when the
// journal will keep it as a deferred write.
func (fs *FS) imageBuf() []byte {
	if fs.jnl != nil {
		return make([]byte, BlockSize)
	}
	return fs.scratch
}

// invalidate drops a block from the cache and location map.
func (fs *FS) invalidate(addr int32) {
	if key, ok := fs.cache.invalidate(addr); ok {
		delete(fs.loc, key)
	}
}

// loadChain returns the directory bucket chain for a file id, reading
// bucket blocks on first use.
func (fs *FS) loadChain(p sim.Proc, fileID uint32) (*bucketChain, error) {
	return fs.loadChainByIndex(p, bucketFor(fileID, int(fs.sb.DirBuckets)))
}

// findEntry returns the bucket block and entry index holding fileID.
func (fs *FS) findEntry(p sim.Proc, fileID uint32) (*bucketBlock, int, error) {
	ch, err := fs.loadChain(p, fileID)
	if err != nil {
		return nil, 0, err
	}
	for _, bb := range ch.blocks {
		for i := range bb.b.Entries {
			if bb.b.Entries[i].FileID == fileID {
				return bb, i, nil
			}
		}
	}
	return nil, 0, fmt.Errorf("%w: file %d", ErrNotFound, fileID)
}

// Sync flushes dirty directory buckets, the bitmap, and the superblock.
// Buckets flush in index order so simulated timings stay deterministic
// under position-dependent disk models. On journaled volumes Sync is a
// group commit: the flush is logged as intent records and forced down
// before any home location is touched (see journal.go).
func (fs *FS) Sync(p sim.Proc) error {
	if fs.jnl != nil {
		return fs.commit(p)
	}
	idxs := make([]int, 0, len(fs.buckets))
	for idx := range fs.buckets {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		ch := fs.buckets[idx]
		for _, bb := range ch.blocks {
			if !bb.dirty {
				continue
			}
			buf := fs.scratch
			encodeBucket(buf, bb.b)
			seal(bb.addr, buf, bucketSumOff)
			if err := fs.d.WriteBlock(p, int(bb.addr), buf); err != nil {
				return fmt.Errorf("efs: flushing directory: %w", err)
			}
			fs.cacheInsert(bb.addr, buf)
			bb.dirty = false
		}
	}
	if fs.dirty.bitmap {
		if err := fs.flushBitmap(p); err != nil {
			return err
		}
	}
	if fs.dirty.super {
		buf := fs.scratch
		clear(buf)
		encodeSuper(buf, fs.sb)
		seal(0, buf, superSumOff)
		if err := fs.d.WriteBlock(p, 0, buf); err != nil {
			return fmt.Errorf("efs: flushing superblock: %w", err)
		}
		fs.dirty.super = false
	}
	return nil
}

func (fs *FS) flushBitmap(p sim.Proc) error {
	for i := 0; i < int(fs.sb.BitmapBlocks); i++ {
		addr := 1 + int(fs.sb.DirBuckets) + i
		fs.bm.encodeBlock(fs.scratch, i)
		seal(int32(addr), fs.scratch, bitmapSumOff)
		if err := fs.d.WriteBlock(p, addr, fs.scratch); err != nil {
			return fmt.Errorf("efs: flushing bitmap: %w", err)
		}
	}
	fs.dirty.bitmap = false
	return nil
}
