package efs

// The write-ahead intent journal makes multi-block metadata updates crash
// consistent. Every update that must land atomically — directory buckets,
// chain links, the allocation bitmap, the superblock — is deferred in
// memory, logged to a reserved region at the end of the device as
// checksummed intent records, forced down with one sync barrier, and only
// then applied to its home location. Mount replays the live records
// idempotently, so a crash at any instant leaves the volume recoverable:
// either a commit's records are all durable (replay finishes the apply) or
// none are live (the commit never happened).
//
// Layout, at the tail of the device:
//
//	blocks N-J .. N-2:  intent records (entry header + full-image payloads)
//	block  N-1:         journal header (magic, size, epoch), fixed address
//
// The header's fixed address is what makes a torn superblock recoverable:
// the superblock is only ever rewritten while a journal entry holding its
// new image is durable, so a mount that finds block 0 torn reads block N-1,
// replays, and reads block 0 again.
//
// Records come in two flavors. Full images carry a complete sealed block
// (metadata, overwrites, rebuilds) and are applied verbatim. Link fixes
// carry only a 28-byte (address, expected header) pair for the append
// path's old-tail next-pointer update — the data area is untouched by that
// update, so replay can rewrite the header over whatever data survived.
// This keeps journal traffic per append at 28 bytes instead of a block.
//
// An append whose old tail was never committed needs no record at all. The
// last block of every append run is held in memory (in data, marked held)
// instead of written: its next pointer is not final until the file's next
// append, and until a commit names it the file's last block no committed
// state references it. The next append sets the held tail's link and writes
// it through — one access, no record — and a commit writes every held tail
// before its barrier, so the barrier covers it like any other write-through
// append. Each appended block is written once. Only an old tail that is
// committed state still goes through a link fix.
//
// Entries within one commit share an ascending contiguous sequence, and the
// last carries a commit flag; replay applies the longest valid prefix that
// ends at a commit flag, so a commit is all-or-nothing even when it spans
// entries. A checkpoint retires applied records by bumping the header
// epoch: records of older epochs fail validation and are dead. The
// checkpoint's own vulnerable window contains only the header write, so a
// torn header implies everything else is stable — mount then just rebuilds
// the header with a fresh epoch.

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"encoding/binary"

	"bridge/internal/disk"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

var (
	journalHdrMagic = [8]byte{'E', 'F', 'S', 'J', 'H', 'D', 'R', '1'}
	journalEntMagic = [8]byte{'E', 'F', 'S', 'J', 'E', 'N', 'T', '1'}
)

const (
	journalVersion = 1
	// jSumOff is the journal blocks' checksum offset (tail, like other
	// metadata blocks).
	jSumOff = BlockSize - 4
	// Entry header layout: magic 0..8, epoch 8..16, seq 16..20, image count
	// 20..22, fix count 22..24, flags 24, payload CRC 28..32, records from
	// 32 (image addresses, then 28-byte link fixes).
	jentRecordsOff = 32
	jentCapacity   = jSumOff - jentRecordsOff
	fixRecBytes    = 4 + HeaderBytes
	jentFlagCommit = 1 // last entry of its commit

	// journalFreeCap bounds how many deferred frees accumulate before a
	// group commit is forced (frees cost no journal space — they ride in
	// the bitmap image — but the deferred list should stay small).
	journalFreeCap = 64
)

// jFix is one deferred tail-link update: rewrite the header at addr,
// keeping the data area.
type jFix struct {
	addr int32
	h    blockHeader
}

// journal is the in-memory side of the intent journal: deferred home
// writes, the region cursor, and the current epoch.
type journal struct {
	start, end int32 // entry region [start, end); header block at end
	epoch      uint64
	cursor     int32  // next entry block to write
	seq        uint32 // next entry sequence number
	groupMax   int    // deferred-op weight that forces a group commit

	data   map[int32][]byte      // deferred home images (sealed), by address
	order  []int32               // insertion order of data
	img    map[int32]bool        // subset of data journaled as full images
	fixes  map[int32]blockHeader // subset journaled as link fixes
	held   map[int32]bool        // subset never journaled: uncommitted tails, at most one per file
	free   []int32               // deferred bitmap frees
	logged map[int32]bool        // addresses with live intent records (this epoch)

	m jmetrics
}

type jmetrics struct {
	commits, entries, blocks, images, linkFixes, checkpoints obs.Counter
	replays, replayEntries, replayTorn                       obs.Counter
}

func newJMetrics(reg *obs.Registry) jmetrics {
	return jmetrics{
		commits:       reg.Counter("bridge.journal_commits", "ops", "journal group commits"),
		entries:       reg.Counter("bridge.journal_entries", "records", "journal intent entries written"),
		blocks:        reg.Counter("bridge.journal_blocks", "blocks", "journal blocks written (entries + images)"),
		images:        reg.Counter("bridge.journal_images", "blocks", "full block images journaled"),
		linkFixes:     reg.Counter("bridge.journal_link_fixes", "records", "tail link fixes journaled"),
		checkpoints:   reg.Counter("bridge.journal_checkpoints", "ops", "journal checkpoints (epoch bumps)"),
		replays:       reg.Counter("bridge.recovery_replays", "ops", "journal replays at mount"),
		replayEntries: reg.Counter("bridge.recovery_entries", "records", "journal entries applied by replay"),
		replayTorn:    reg.Counter("bridge.recovery_torn_discarded", "ops", "replays that discarded a torn or incomplete tail"),
	}
}

// newJournal builds the in-memory journal state for a volume whose
// superblock reserves a journal region.
func newJournal(sb superblock, m jmetrics) *journal {
	start := int32(sb.NumBlocks - sb.JournalBlocks)
	end := int32(sb.NumBlocks - 1)
	groupMax := int(end-start) - int(sb.BitmapBlocks) - 8
	if groupMax > 32 {
		groupMax = 32
	}
	return &journal{
		start:    start,
		end:      end,
		epoch:    1,
		cursor:   start,
		seq:      1,
		groupMax: groupMax,
		data:     make(map[int32][]byte),
		img:      make(map[int32]bool),
		fixes:    make(map[int32]blockHeader),
		held:     make(map[int32]bool),
		logged:   make(map[int32]bool),
		m:        m,
	}
}

// minJournalBlocks is the smallest region that guarantees one worst-case
// group commit (groupMax images, every bucket dirty, the bitmap, the
// superblock, and the entry headers) fits the region.
func minJournalBlocks(bitmapBlocks int) int { return bitmapBlocks + 11 }

// ReplayStats describes one journal replay performed at mount time.
type ReplayStats struct {
	Epoch         uint64 // epoch the replayed records belonged to
	Entries       int    // intent entries applied
	Images        int    // full block images applied
	Fixes         int    // link fixes applied (header rewritten)
	FixesSkipped  int    // link fixes already in place
	TornTail      bool   // a torn or incomplete tail was discarded
	SuperRestored bool   // the superblock was rebuilt from a journal image
	HeaderRebuilt bool   // the journal header itself was torn and rebuilt
	Started       time.Duration
	Ended         time.Duration
}

// LastReplay returns the replay performed when this FS was mounted, or nil
// if the volume has no journal or the journal was empty and intact.
func (fs *FS) LastReplay() *ReplayStats { return fs.replay }

// Journaled reports whether the volume has a write-ahead intent journal.
func (fs *FS) Journaled() bool { return fs.jnl != nil }

// dataEnd returns the first block past the data region: the journal region
// start on journaled volumes, the device end otherwise.
func (fs *FS) dataEnd() int32 { return int32(fs.sb.NumBlocks - fs.sb.JournalBlocks) }

// deferred reports whether addr has a deferred home write whose on-disk
// copy is stale until the next commit.
func (fs *FS) deferred(addr int32) bool {
	if fs.jnl == nil {
		return false
	}
	_, ok := fs.jnl.data[addr]
	return ok
}

// pendingFreeSet returns the deferred frees as a set (nil when none).
func (fs *FS) pendingFreeSet() map[int32]bool {
	if fs.jnl == nil || len(fs.jnl.free) == 0 {
		return nil
	}
	s := make(map[int32]bool, len(fs.jnl.free))
	for _, a := range fs.jnl.free {
		s[a] = true
	}
	return s
}

// deferData records buf, sealed, as the authoritative image of addr until
// the next commit (or, for a held tail, until its write); the journal keeps
// buf, so the caller hands over a buffer of its own, and says how the
// commit treats it.
func (fs *FS) deferData(addr int32, buf []byte) {
	j := fs.jnl
	seal(addr, buf, dataSumOff)
	if _, ok := j.data[addr]; !ok {
		j.order = append(j.order, addr)
	}
	j.data[addr] = buf
	fs.cacheInsert(addr, buf)
}

// deferImage defers a full-image write of a data-region block: the sealed
// image is journaled verbatim at the next commit and only then written
// home. Used for overwrites and rebuilds, where the data area changes. A
// held tail is not committed state, so its new image simply replaces the
// held one and is still written once, unjournaled.
func (fs *FS) deferImage(addr int32, buf []byte) {
	j := fs.jnl
	fs.deferData(addr, buf)
	if !j.held[addr] {
		j.img[addr] = true
		delete(j.fixes, addr)
	}
}

// deferFix defers the append path's old-tail header rewrite: the journal
// records only (address, expected header), since the data area is
// untouched. If the block already has a deferred full image, the image
// absorbs the new header and no fix record is needed.
func (fs *FS) deferFix(addr int32, buf []byte) {
	fs.deferData(addr, buf)
	if !fs.jnl.img[addr] {
		fs.jnl.fixes[addr] = decodeHeader(buf)
	}
}

// holdTail keeps the image of an uncommitted tail in memory until its next
// pointer is final: the file's next append or the next commit writes it
// (see the header comment).
func (fs *FS) holdTail(addr int32, buf []byte) {
	fs.deferData(addr, buf)
	fs.jnl.held[addr] = true
}

// dropDeferred forgets any deferred write for addr: the block is being
// deleted (writing it would be wasted work on a doomed block), or it is a
// held tail that has just been written through.
func (j *journal) dropDeferred(addr int32) {
	if _, ok := j.data[addr]; !ok {
		return
	}
	delete(j.data, addr)
	delete(j.img, addr)
	delete(j.fixes, addr)
	delete(j.held, addr)
	for i, a := range j.order {
		if a == addr {
			j.order = append(j.order[:i], j.order[i+1:]...)
			break
		}
	}
}

// deferFree queues a bitmap free for the next commit. The bit stays set
// until then, so the block cannot be reallocated while the committed state
// still references it.
func (fs *FS) deferFree(addr int32) {
	fs.jnl.free = append(fs.jnl.free, addr)
}

// maybeCommit group-commits the journal once enough deferred work has
// accumulated to approach the entry region's capacity. Held tails take no
// journal space, so they do not count.
func (fs *FS) maybeCommit(p sim.Proc) error {
	j := fs.jnl
	if j == nil {
		return nil
	}
	weight := len(j.order) - len(j.held)
	for _, ch := range fs.buckets {
		for _, bb := range ch.blocks {
			if bb.dirty {
				weight++
			}
		}
	}
	if weight >= j.groupMax || len(j.free) >= journalFreeCap {
		return fs.Sync(p)
	}
	return nil
}

// homeWrite pairs a block address with its sealed image.
type homeWrite struct {
	addr int32
	buf  []byte
}

// writeHeld writes every held tail through and releases it. Each one's
// link is final: the commit about to run names it its file's last block.
// A failure releases none, and the next commit writes them all again.
func (fs *FS) writeHeld(p sim.Proc) error {
	j := fs.jnl
	if len(j.held) == 0 {
		return nil
	}
	for _, a := range j.order {
		if j.held[a] {
			if err := fs.writeThrough(p, a, j.data[a]); err != nil {
				return err
			}
		}
	}
	kept := j.order[:0]
	for _, a := range j.order {
		if j.held[a] {
			delete(j.data, a)
			delete(j.held, a)
		} else {
			kept = append(kept, a)
		}
	}
	j.order = kept
	return nil
}

// commit is Sync on a journaled volume: held tails are written through,
// deferred frees land in the bitmap, every deferred home write plus dirty
// metadata is logged as intent records, one sync barrier makes the records
// (and all earlier write-through data, held tails included) durable, and
// only then do the home writes go down.
func (fs *FS) commit(p sim.Proc) error {
	j := fs.jnl
	if err := fs.writeHeld(p); err != nil {
		return err
	}
	for _, a := range j.free {
		fs.bm.clear(int(a))
	}
	if len(j.free) > 0 {
		fs.dirty.bitmap = true
		j.free = j.free[:0]
	}

	var writes []homeWrite // everything applied after the barrier
	var imgs []homeWrite   // subset journaled as full images, payload order
	var fixes []jFix
	for _, a := range j.order {
		buf := j.data[a]
		writes = append(writes, homeWrite{a, buf})
		if j.img[a] {
			imgs = append(imgs, homeWrite{a, buf})
		} else {
			fixes = append(fixes, jFix{a, j.fixes[a]})
		}
	}
	idxs := make([]int, 0, len(fs.buckets))
	for idx := range fs.buckets {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		for _, bb := range fs.buckets[idx].blocks {
			if !bb.dirty {
				continue
			}
			buf := make([]byte, BlockSize)
			encodeBucket(buf, bb.b)
			seal(bb.addr, buf, bucketSumOff)
			writes = append(writes, homeWrite{bb.addr, buf})
			imgs = append(imgs, homeWrite{bb.addr, buf})
			bb.dirty = false
		}
	}
	if fs.dirty.bitmap {
		for i := 0; i < int(fs.sb.BitmapBlocks); i++ {
			addr := int32(1 + int(fs.sb.DirBuckets) + i)
			b := make([]byte, BlockSize)
			fs.bm.encodeBlock(b, i)
			seal(addr, b, bitmapSumOff)
			writes = append(writes, homeWrite{addr, b})
			imgs = append(imgs, homeWrite{addr, b})
		}
		fs.dirty.bitmap = false
	}
	if fs.dirty.super {
		buf := make([]byte, BlockSize)
		encodeSuper(buf, fs.sb)
		seal(0, buf, superSumOff)
		writes = append(writes, homeWrite{0, buf})
		imgs = append(imgs, homeWrite{0, buf})
		fs.dirty.super = false
	}

	if len(writes) == 0 {
		// Nothing to log: Sync still acts as a durability barrier for
		// earlier write-through data.
		return fs.d.Sync(p)
	}

	// Pack records into entries; the last one carries the commit flag.
	type entryPlan struct {
		imgs   []homeWrite
		fixes  []jFix
		commit bool
	}
	var plan []entryPlan
	for ii, fi := 0, 0; ii < len(imgs) || fi < len(fixes); {
		room := jentCapacity
		var ep entryPlan
		for ii < len(imgs) && room >= 4 {
			ep.imgs = append(ep.imgs, imgs[ii])
			ii++
			room -= 4
		}
		for fi < len(fixes) && room >= fixRecBytes {
			ep.fixes = append(ep.fixes, fixes[fi])
			fi++
			room -= fixRecBytes
		}
		plan = append(plan, ep)
	}
	plan[len(plan)-1].commit = true

	need := int32(len(plan) + len(imgs))
	if j.end-j.cursor < need {
		if err := fs.checkpoint(p); err != nil {
			return err
		}
	}
	if j.end-j.start < need {
		return fmt.Errorf("%w: journal region too small for commit of %d blocks", ErrNoSpace, need)
	}
	for _, ep := range plan {
		buf := make([]byte, BlockSize)
		copy(buf, journalEntMagic[:])
		binary.LittleEndian.PutUint64(buf[8:], j.epoch)
		binary.LittleEndian.PutUint32(buf[16:], j.seq)
		binary.LittleEndian.PutUint16(buf[20:], uint16(len(ep.imgs)))
		binary.LittleEndian.PutUint16(buf[22:], uint16(len(ep.fixes)))
		if ep.commit {
			buf[24] = jentFlagCommit
		}
		var crc uint32
		off := jentRecordsOff
		for _, im := range ep.imgs {
			crc = crc32.Update(crc, crcTable, im.buf)
			binary.LittleEndian.PutUint32(buf[off:], uint32(im.addr))
			off += 4
		}
		binary.LittleEndian.PutUint32(buf[28:], crc)
		for _, fx := range ep.fixes {
			binary.LittleEndian.PutUint32(buf[off:], uint32(fx.addr))
			encodeHeader(buf[off+4:], fx.h)
			off += fixRecBytes
		}
		seal(j.cursor, buf, jSumOff)
		if err := fs.d.WriteBlock(p, int(j.cursor), buf); err != nil {
			return fmt.Errorf("efs: writing journal entry: %w", err)
		}
		j.cursor++
		for _, im := range ep.imgs {
			if err := fs.d.WriteBlock(p, int(j.cursor), im.buf); err != nil {
				return fmt.Errorf("efs: writing journal image: %w", err)
			}
			j.cursor++
		}
		j.seq++
	}
	if err := fs.d.Sync(p); err != nil {
		return fmt.Errorf("efs: journal barrier: %w", err)
	}

	for _, w := range writes {
		if err := fs.d.WriteBlock(p, int(w.addr), w.buf); err != nil {
			return fmt.Errorf("efs: applying block %d: %w", w.addr, err)
		}
		fs.cacheInsert(w.addr, w.buf)
	}
	j.data = make(map[int32][]byte)
	j.order = j.order[:0]
	j.img = make(map[int32]bool)
	j.fixes = make(map[int32]blockHeader)

	// Remember which addresses have live records: until the next
	// checkpoint retires them, replay may rewrite these blocks, so a
	// non-journaled write must never land there (see appendBlock).
	for _, im := range imgs {
		j.logged[im.addr] = true
	}
	for _, fx := range fixes {
		j.logged[fx.addr] = true
	}

	j.m.commits.Add(1)
	j.m.entries.Add(int64(len(plan)))
	j.m.blocks.Add(int64(need))
	j.m.images.Add(int64(len(imgs)))
	j.m.linkFixes.Add(int64(len(fixes)))
	return nil
}

// checkpoint retires all live journal records: once every applied home
// write is stable, the header's epoch is bumped (invalidating the records)
// and forced down. The only write in flight between the two barriers is the
// header itself, so a crash here leaves either the old or a torn header —
// never a live record set with unstable home writes.
func (fs *FS) checkpoint(p sim.Proc) error {
	j := fs.jnl
	if err := fs.d.Sync(p); err != nil {
		return fmt.Errorf("efs: checkpoint barrier: %w", err)
	}
	j.epoch++
	if err := writeJournalHeader(p, fs.d, j.end, fs.sb.JournalBlocks, j.epoch); err != nil {
		return err
	}
	if err := fs.d.Sync(p); err != nil {
		return fmt.Errorf("efs: checkpoint barrier: %w", err)
	}
	j.cursor, j.seq = j.start, 1
	j.logged = make(map[int32]bool)
	j.m.checkpoints.Add(1)
	return nil
}

func writeJournalHeader(p sim.Proc, d *disk.Disk, at int32, journalBlocks uint32, epoch uint64) error {
	buf := make([]byte, BlockSize)
	copy(buf, journalHdrMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], journalVersion)
	binary.LittleEndian.PutUint32(buf[12:], journalBlocks)
	binary.LittleEndian.PutUint64(buf[16:], epoch)
	seal(at, buf, jSumOff)
	if err := d.WriteBlock(p, int(at), buf); err != nil {
		return fmt.Errorf("efs: writing journal header: %w", err)
	}
	return nil
}

// decodeJournalHeader validates the header block at addr and returns its
// region size and epoch.
func decodeJournalHeader(addr int32, raw []byte) (journalBlocks uint32, epoch uint64, ok bool) {
	if !sumOK(addr, raw, jSumOff) {
		return 0, 0, false
	}
	for i := range journalHdrMagic {
		if raw[i] != journalHdrMagic[i] {
			return 0, 0, false
		}
	}
	if binary.LittleEndian.Uint32(raw[8:]) != journalVersion {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(raw[12:]), binary.LittleEndian.Uint64(raw[16:]), true
}

// jEntry is one decoded intent entry.
type jEntry struct {
	seq     uint32
	commit  bool
	imgAddr []int32
	imgBuf  [][]byte
	fixes   []jFix
}

// decodeEntryHeader validates an entry header block for the given epoch.
// The payload images are read and checked by the caller.
func decodeEntryHeader(addr int32, raw []byte, epoch uint64) (ent jEntry, imgCount int, payloadCRC uint32, ok bool) {
	if !sumOK(addr, raw, jSumOff) {
		return ent, 0, 0, false
	}
	for i := range journalEntMagic {
		if raw[i] != journalEntMagic[i] {
			return ent, 0, 0, false
		}
	}
	if binary.LittleEndian.Uint64(raw[8:]) != epoch {
		return ent, 0, 0, false
	}
	nImg := int(binary.LittleEndian.Uint16(raw[20:]))
	nFix := int(binary.LittleEndian.Uint16(raw[22:]))
	if nImg*4+nFix*fixRecBytes > jentCapacity {
		return ent, 0, 0, false
	}
	ent.seq = binary.LittleEndian.Uint32(raw[16:])
	ent.commit = raw[24]&jentFlagCommit != 0
	payloadCRC = binary.LittleEndian.Uint32(raw[28:])
	off := jentRecordsOff
	for i := 0; i < nImg; i++ {
		ent.imgAddr = append(ent.imgAddr, int32(binary.LittleEndian.Uint32(raw[off:])))
		off += 4
	}
	for i := 0; i < nFix; i++ {
		a := int32(binary.LittleEndian.Uint32(raw[off:]))
		ent.fixes = append(ent.fixes, jFix{a, decodeHeader(raw[off+4:])})
		off += fixRecBytes
	}
	return ent, nImg, payloadCRC, true
}

// scanJournal reads the longest valid contiguous run of entries for epoch,
// truncated to the last commit-flagged entry (a commit is all-or-nothing).
// torn reports whether anything after the accepted run looked like an
// in-flight record.
func scanJournal(p sim.Proc, d *disk.Disk, start, end int32, epoch uint64) (entries []jEntry, torn bool, err error) {
	cur := start
	wantSeq := uint32(1)
scan:
	for cur < end {
		raw, err := d.ReadBlock(p, int(cur))
		if err != nil {
			return nil, false, fmt.Errorf("efs: reading journal block %d: %w", cur, err)
		}
		ent, nImg, wantCRC, ok := decodeEntryHeader(cur, raw, epoch)
		if !ok || ent.seq != wantSeq {
			// A block bearing the entry magic but failing validation is a
			// torn record from an interrupted commit.
			torn = hasMagic(raw, journalEntMagic)
			break
		}
		if cur+1+int32(nImg) > end {
			torn = true
			break
		}
		var crc uint32
		for i := 0; i < nImg; i++ {
			b, err := d.ReadBlock(p, int(cur)+1+i)
			if err != nil {
				return nil, false, fmt.Errorf("efs: reading journal image %d: %w", int(cur)+1+i, err)
			}
			crc = crc32.Update(crc, crcTable, b)
			ent.imgBuf = append(ent.imgBuf, b)
		}
		if crc != wantCRC {
			torn = true
			break scan
		}
		entries = append(entries, ent)
		wantSeq++
		cur += 1 + int32(nImg)
	}
	last := -1
	for i := range entries {
		if entries[i].commit {
			last = i
		}
	}
	if last+1 < len(entries) {
		torn = true // trailing entries of an incomplete commit
	}
	return entries[:last+1], torn, nil
}

func hasMagic(raw []byte, magic [8]byte) bool {
	for i := range magic {
		if raw[i] != magic[i] {
			return false
		}
	}
	return true
}

// restoresSuper reports whether replaying entries rewrites the superblock.
func restoresSuper(entries []jEntry) bool {
	for _, ent := range entries {
		for _, a := range ent.imgAddr {
			if a == 0 {
				return true
			}
		}
	}
	return false
}

// applyEntries replays decoded entries against the device: full images go
// down verbatim; link fixes rewrite the header over the surviving data area
// unless the expected header is already in place. Idempotent — replaying
// the same entries any number of times converges on the same bytes.
func applyEntries(p sim.Proc, d *disk.Disk, entries []jEntry, st *ReplayStats) error {
	for _, ent := range entries {
		for i, a := range ent.imgAddr {
			if err := d.WriteBlock(p, int(a), ent.imgBuf[i]); err != nil {
				return fmt.Errorf("efs: replaying image at %d: %w", a, err)
			}
			st.Images++
		}
		for _, fx := range ent.fixes {
			raw, err := d.ReadBlock(p, int(fx.addr))
			if err != nil {
				return fmt.Errorf("efs: replaying fix at %d: %w", fx.addr, err)
			}
			if sumOK(fx.addr, raw, dataSumOff) && decodeHeader(raw) == fx.h {
				st.FixesSkipped++
				continue
			}
			// The fixed write only changed header bytes, so whatever tore
			// left the data area intact; rewrite the header over it.
			encodeHeader(raw, fx.h)
			seal(fx.addr, raw, dataSumOff)
			if err := d.WriteBlock(p, int(fx.addr), raw); err != nil {
				return fmt.Errorf("efs: replaying fix at %d: %w", fx.addr, err)
			}
			st.Fixes++
		}
		st.Entries++
	}
	return nil
}

// mountJournal reads the superblock and, on journaled volumes, replays the
// journal first: live intent records are applied, torn tails discarded, and
// the journal checkpointed to a fresh epoch. It handles the two torn-write
// bootstrap cases — a torn superblock (recovered from a journaled image
// found via the fixed-address header) and a torn journal header (rebuilt
// with an epoch newer than any record on disk). A superblock that is
// neither valid nor restored by a record is ErrUnformatted. Returns the decoded
// superblock, the replay stats (nil for unjournaled volumes), and the
// journal's fresh epoch. Journal metrics are registered on reg only when
// the volume turns out to be journaled.
func mountJournal(p sim.Proc, d *disk.Disk, reg *obs.Registry) (superblock, *ReplayStats, uint64, error) {
	raw, err := d.ReadBlock(p, 0)
	if err != nil {
		return superblock{}, nil, 0, fmt.Errorf("efs: reading superblock: %w", err)
	}
	var sb superblock
	sbOK := sumOK(0, raw, superSumOff)
	if sbOK {
		if sb, err = decodeSuper(raw); err != nil {
			return superblock{}, nil, 0, err
		}
		if sb.JournalBlocks == 0 {
			return sb, nil, 0, nil
		}
	}

	st := &ReplayStats{Started: p.Now(), SuperRestored: !sbOK}
	n := int32(d.Config().NumBlocks)
	hdrAddr := n - 1
	hraw, err := d.ReadBlock(p, int(hdrAddr))
	if err != nil {
		return superblock{}, nil, 0, fmt.Errorf("efs: reading journal header: %w", err)
	}
	jb, epoch, hdrOK := decodeJournalHeader(hdrAddr, hraw)
	if !sbOK && !hdrOK {
		return superblock{}, nil, 0, ErrUnformatted
	}
	if sbOK {
		if hdrOK && jb != sb.JournalBlocks {
			return superblock{}, nil, 0, fmt.Errorf("%w: journal header says %d blocks, superblock %d", ErrCorrupt, jb, sb.JournalBlocks)
		}
		jb = sb.JournalBlocks
	}
	if int32(jb) >= n || jb < 2 {
		return superblock{}, nil, 0, fmt.Errorf("%w: journal region of %d blocks", ErrCorrupt, jb)
	}
	start := n - int32(jb)

	if hdrOK {
		entries, torn, err := scanJournal(p, d, start, hdrAddr, epoch)
		if err != nil {
			return superblock{}, nil, 0, err
		}
		if !sbOK && !restoresSuper(entries) {
			// Checked before replay writes anything: a format cut short
			// before its superblock leaves the header and no records.
			return superblock{}, nil, 0, ErrUnformatted
		}
		st.Epoch, st.TornTail = epoch, torn
		if err := applyEntries(p, d, entries, st); err != nil {
			return superblock{}, nil, 0, err
		}
		if err := d.Sync(p); err != nil {
			return superblock{}, nil, 0, fmt.Errorf("efs: replay barrier: %w", err)
		}
	} else {
		// Torn checkpoint: every home write is already stable (the header
		// is the only write between checkpoint barriers), so the records
		// are dead — rebuild the header with an epoch newer than any of
		// them.
		st.HeaderRebuilt = true
		for cur := start; cur < hdrAddr; cur++ {
			b, err := d.ReadBlock(p, int(cur))
			if err != nil {
				return superblock{}, nil, 0, fmt.Errorf("efs: reading journal block %d: %w", cur, err)
			}
			if hasMagic(b, journalEntMagic) && sumOK(cur, b, jSumOff) {
				if e := binary.LittleEndian.Uint64(b[8:]); e > epoch {
					epoch = e
				}
			}
		}
		st.Epoch = epoch
	}
	// Always move to a fresh epoch so records applied (or retired) by this
	// mount can never be mistaken for live ones by the next.
	epoch++
	if err := writeJournalHeader(p, d, hdrAddr, jb, epoch); err != nil {
		return superblock{}, nil, 0, err
	}
	if err := d.Sync(p); err != nil {
		return superblock{}, nil, 0, fmt.Errorf("efs: replay barrier: %w", err)
	}

	if !sbOK || st.Images > 0 {
		// The replay may have rewritten block 0; trust only the fresh copy.
		raw, err = d.ReadBlock(p, 0)
		if err != nil {
			return superblock{}, nil, 0, fmt.Errorf("efs: reading superblock: %w", err)
		}
	}
	if !sumOK(0, raw, superSumOff) {
		return superblock{}, nil, 0, fmt.Errorf("%w: superblock checksum mismatch after replay", ErrCorrupt)
	}
	if sb, err = decodeSuper(raw); err != nil {
		return superblock{}, nil, 0, err
	}
	st.Ended = p.Now()
	m := newJMetrics(reg)
	m.replays.Add(1)
	m.replayEntries.Add(int64(st.Entries))
	if st.TornTail {
		m.replayTorn.Add(1)
	}
	return sb, st, epoch, nil
}
