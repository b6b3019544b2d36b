package efs

import (
	"errors"
	"fmt"

	"bridge/internal/sim"
)

// Create registers a new empty file.
func (fs *FS) Create(p sim.Proc, fileID uint32) error {
	ch, err := fs.loadChain(p, fileID)
	if err != nil {
		return err
	}
	for _, bb := range ch.blocks {
		for i := range bb.b.Entries {
			if bb.b.Entries[i].FileID == fileID {
				return fmt.Errorf("%w: file %d", ErrExists, fileID)
			}
		}
	}
	entry := dirEntry{FileID: fileID, First: nilAddr, Last: nilAddr}
	for _, bb := range ch.blocks {
		if len(bb.b.Entries) < dirEntriesMax {
			bb.b.Entries = append(bb.b.Entries, entry)
			bb.dirty = true
			return fs.maybeCommit(p)
		}
	}
	// All buckets in the chain are full: grow an overflow bucket.
	addr := fs.allocBlock(nilAddr)
	if addr == nilAddr {
		return ErrNoSpace
	}
	last := ch.blocks[len(ch.blocks)-1]
	last.b.Overflow = addr
	last.dirty = true
	ch.blocks = append(ch.blocks, &bucketBlock{
		addr:  addr,
		b:     dirBucket{Overflow: nilAddr, Entries: []dirEntry{entry}},
		dirty: true,
	})
	return fs.maybeCommit(p)
}

// Stat returns the file's directory information.
func (fs *FS) Stat(p sim.Proc, fileID uint32) (FileInfo, error) {
	bb, i, err := fs.findEntry(p, fileID)
	if err != nil {
		return FileInfo{}, err
	}
	e := bb.b.Entries[i]
	return FileInfo{FileID: e.FileID, Blocks: int(e.Blocks), First: e.First, Last: e.Last}, nil
}

// ReadBlock returns the data of logical block blockNum of the file, along
// with the block's disk address, to be used as the hint for a subsequent
// request (the stateless-server protocol the paper adopted from Cronus).
func (fs *FS) ReadBlock(p sim.Proc, fileID, blockNum uint32, hint int32) (data []byte, addr int32, err error) {
	bb, i, err := fs.findEntry(p, fileID)
	if err != nil {
		return nil, nilAddr, err
	}
	e := &bb.b.Entries[i]
	if blockNum >= uint32(e.Blocks) {
		return nil, nilAddr, fmt.Errorf("%w: block %d of file %d (size %d)", ErrBadBlockNum, blockNum, fileID, e.Blocks)
	}
	addr, raw, err := fs.findBlock(p, e, fileID, blockNum, hint)
	if err != nil {
		return nil, nilAddr, err
	}
	// The one copy a read makes: raw is the cache's (or the journal's)
	// image, and the result leaves EFS as the reply.
	data = make([]byte, decodeHeader(raw).DataLen)
	copy(data, raw[HeaderBytes:])
	return data, addr, nil
}

// WriteBlock writes logical block blockNum. blockNum equal to the file size
// appends; smaller overwrites in place; larger is an error. It returns the
// block's disk address for use as a hint.
func (fs *FS) WriteBlock(p sim.Proc, fileID, blockNum uint32, data []byte, hint int32) (int32, error) {
	return fs.WriteBlockHead(p, fileID, blockNum, nil, data, hint)
}

// WriteBlockHead is WriteBlock of a block whose data area is head, then
// data: a writer that puts a header before a payload hands both over as
// they are. EFS keeps neither slice; each is copied into the block's image.
func (fs *FS) WriteBlockHead(p sim.Proc, fileID, blockNum uint32, head, data []byte, hint int32) (int32, error) {
	if n := len(head) + len(data); n > DataBytes {
		return nilAddr, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	bb, i, err := fs.findEntry(p, fileID)
	if err != nil {
		return nilAddr, err
	}
	e := &bb.b.Entries[i]
	var addr int32
	switch {
	case blockNum == uint32(e.Blocks):
		var one [1]int32
		err = fs.appendRun(p, bb, e, fileID, [][]byte{head}, [][]byte{data}, one[:])
		addr = one[0]
	case blockNum < uint32(e.Blocks):
		addr, err = fs.overwriteBlock(p, e, fileID, blockNum, head, data, hint)
	default:
		return nilAddr, fmt.Errorf("%w: block %d of file %d (size %d)", ErrNotAppend, blockNum, fileID, e.Blocks)
	}
	if err != nil {
		return nilAddr, err
	}
	if err := fs.maybeCommit(p); err != nil {
		return nilAddr, err
	}
	return addr, nil
}

// AppendRun appends a run of blocks in one operation: the whole run is
// allocated up front (near-chained for locality), every new block is written
// once with its final links already in place, each stretch of consecutive
// new blocks on one track in a single device access, and the old tail's
// next pointer is fixed exactly once for the entire run — for a run of 8
// that lands on one track, two accesses on an unjournaled volume (one on a
// journaled one: see appendRun), where appending the blocks one at a time
// pays two per block. startBlock must equal the file's current size (the
// caller's view of the append point; a stale view gets ErrNotAppend so the
// caller can fall back to the per-block path). Block j's data area is
// heads[j], then datas[j]; a nil heads gives every block an empty head. As
// in WriteBlock, EFS keeps no slice it is handed.
func (fs *FS) AppendRun(p sim.Proc, fileID, startBlock uint32, heads, datas [][]byte) ([]int32, error) {
	if len(datas) == 0 {
		return nil, nil
	}
	for j, d := range datas {
		if n := len(headAt(heads, j)) + len(d); n > DataBytes {
			return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
		}
	}
	bb, i, err := fs.findEntry(p, fileID)
	if err != nil {
		return nil, err
	}
	e := &bb.b.Entries[i]
	if startBlock != uint32(e.Blocks) {
		return nil, fmt.Errorf("%w: run at block %d of file %d (size %d)", ErrNotAppend, startBlock, fileID, e.Blocks)
	}
	addrs := make([]int32, len(datas))
	if err := fs.appendRun(p, bb, e, fileID, heads, datas, addrs); err != nil {
		return nil, err
	}
	if err := fs.maybeCommit(p); err != nil {
		return addrs, err
	}
	return addrs, nil
}

// appendRun is the one append: WriteBlock's append case is a run of one. It
// appends the blocks of heads and datas (one of each per block) at the
// file's tail and fills addrs, the caller's scratch of the same length, with
// the new blocks' addresses.
//
// The new blocks are gathered into the track scratch and written a run at a
// time: each stretch of consecutive addresses on one track is one device
// access (gatherBuf, writeRun). On an unjournaled volume the old tail's
// pointer is then rewritten with an access of its own, after the run, so
// the link never reaches the medium before the blocks it names: a run of k
// blocks on t tracks costs t+1 accesses, and k = 1 the two of the paper's
// 31 ms sequential write. On a journaled volume the run's last block is
// held in memory until its link is final (holdTail); an old tail that is
// itself held is referenced by no committed state, so it joins the run's
// writes with its link set, and only a committed old tail is left to a
// journaled link fix.
//
// The run is atomic: the file's entry and its committed old tail name no new
// block until every one is written, so a failure mid-run frees the whole
// allocation and leaves the file exactly as it was — a held old tail keeps
// its held image and wrap link (whatever reached the disk for it is stale
// until it is written again), the written blocks are unreachable and their
// bitmap bits are cleared, the same freed-but-flagged state a fast delete
// leaves, which the bitmap-authoritative liveData guard and Fsck already
// tolerate.
func (fs *FS) appendRun(p sim.Proc, bb *bucketBlock, e *dirEntry, fileID uint32, heads, datas [][]byte, addrs []int32) error {
	// undo frees the first n allocations; nothing links to the run yet, so
	// that restores the file exactly.
	undo := func(n int, err error) error {
		for _, a := range addrs[:n] {
			fs.invalidate(a)
			fs.freeBlock(a)
		}
		return err
	}
	// Allocate the whole run first so a full volume fails before any write.
	near := nilAddr
	if e.Last != nilAddr {
		near = e.Last + 1
	}
	for j := range addrs {
		addrs[j] = fs.allocBlock(near)
		if addrs[j] == nilAddr {
			return undo(j, ErrNoSpace)
		}
		near = addrs[j] + 1
	}
	jnl := fs.jnl
	if jnl != nil {
		for _, a := range addrs {
			if jnl.logged[a] {
				// The freed-and-reused address still has a live intent record
				// from an earlier commit. The new block goes down
				// write-through, outside the journal, so a crash now would
				// let replay clobber it with the stale record. Checkpoint
				// first to retire the old records.
				if err := fs.checkpoint(p); err != nil {
					return undo(len(addrs), err)
				}
				break
			}
		}
	}
	heldOld := jnl != nil && e.Blocks > 0 && jnl.held[e.Last]
	if heldOld {
		buf, err := fs.gatherBuf(p, e.Last)
		if err != nil {
			return undo(len(addrs), err)
		}
		copy(buf, jnl.data[e.Last])
		oh := decodeHeader(buf)
		oh.Next = addrs[0]
		encodeHeader(buf, oh)
	}
	startBlock := uint32(e.Blocks)
	head := e.First
	if e.Blocks == 0 {
		head = addrs[0]
	}
	var held []byte // the run's last block, on a journaled volume
	for j, data := range datas {
		hd := headAt(heads, j)
		h := blockHeader{
			FileID:   fileID,
			BlockNum: startBlock + uint32(j),
			Next:     head, // tail wraps to head (a single block points at itself)
			Prev:     addrs[j],
			DataLen:  uint16(len(hd) + len(data)),
			Flags:    flagUsed,
		}
		if j+1 < len(addrs) {
			h.Next = addrs[j+1]
		}
		if j > 0 {
			h.Prev = addrs[j-1]
		} else if e.Blocks > 0 {
			h.Prev = e.Last
		}
		if jnl != nil && j+1 == len(datas) {
			held = make([]byte, BlockSize) // the journal keeps a held tail
			encodeData(held, h, hd, data)
			continue
		}
		buf, err := fs.gatherBuf(p, addrs[j])
		if err != nil {
			return undo(len(addrs), err)
		}
		encodeData(buf, h, hd, data)
	}
	if err := fs.writeRun(p); err != nil {
		return undo(len(addrs), err)
	}
	switch {
	case heldOld:
		// Its link is on disk now, written once with the run.
		jnl.dropDeferred(e.Last)
	case e.Blocks > 0:
		// One tail fix for the whole run.
		if err := fs.linkTail(p, e, fileID, addrs[0]); err != nil {
			return undo(len(addrs), err)
		}
	default:
		e.First = addrs[0]
	}
	if held != nil {
		fs.holdTail(addrs[len(addrs)-1], held)
	}
	e.Last = addrs[len(addrs)-1]
	e.Blocks += int32(len(datas))
	bb.dirty = true
	return nil
}

// headAt returns block j's head in a run: none when heads is nil.
func headAt(heads [][]byte, j int) []byte {
	if heads == nil {
		return nil
	}
	return heads[j]
}

// linkTail points the file's committed old tail at next, the first block of
// a run whose blocks are written (a held old tail is written with the run
// instead: see appendRun). On a journaled volume the tail could tear if
// rewritten in place, so its update is journaled as a link fix and applied
// once the intent record is durable. An unjournaled volume writes through.
func (fs *FS) linkTail(p sim.Proc, e *dirEntry, fileID uint32, next int32) error {
	raw, err := fs.readCached(p, e.Last)
	if err == nil {
		err = verifyData(e.Last, raw)
	}
	if err != nil {
		fs.invalidate(e.Last)
		return fmt.Errorf("tail of file %d: %w", fileID, err)
	}
	oh := decodeHeader(raw)
	if oh.FileID != fileID || oh.Flags&flagUsed == 0 {
		return fmt.Errorf("%w: tail of file %d at %d is not its block", ErrCorrupt, fileID, e.Last)
	}
	old := fs.imageBuf()
	copy(old, raw)
	oh.Next = next
	encodeHeader(old, oh)
	if fs.jnl != nil {
		fs.deferFix(e.Last, old)
		return nil
	}
	return fs.writeThrough(p, e.Last, old)
}

// overwriteBlock rewrites an existing block's data in place, preserving its
// links. If the target block itself fails verification, the overwrite still
// succeeds: the block is rebuilt from its verified chain neighbors — this is
// what lets read-repair rewrite a rotted block through the ordinary write
// path.
func (fs *FS) overwriteBlock(p sim.Proc, e *dirEntry, fileID, blockNum uint32, head, data []byte, hint int32) (int32, error) {
	addr, raw, err := fs.findBlock(p, e, fileID, blockNum, hint)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			return nilAddr, err
		}
		return fs.rebuildBlock(p, e, fileID, blockNum, head, data)
	}
	h := decodeHeader(raw)
	h.DataLen = uint16(len(head) + len(data))
	buf := fs.imageBuf()
	encodeData(buf, h, head, data)
	if fs.jnl != nil {
		// In-place overwrite of committed data: journal the full image.
		fs.deferImage(addr, buf)
		return addr, nil
	}
	if err := fs.writeThrough(p, addr, buf); err != nil {
		return nilAddr, err
	}
	return addr, nil
}

// rebuildBlock rewrites logical block blockNum without trusting its current
// contents: the disk address and link targets are recovered from verified
// neighbors only (the predecessor's next pointer and the successor's
// address), and the header is reconstructed from scratch.
func (fs *FS) rebuildBlock(p sim.Proc, e *dirEntry, fileID, blockNum uint32, head, data []byte) (int32, error) {
	addr, next, prev, err := fs.locateForRewrite(p, e, fileID, blockNum)
	if err != nil {
		return nilAddr, err
	}
	h := blockHeader{
		FileID:   fileID,
		BlockNum: blockNum,
		Next:     next,
		Prev:     prev,
		DataLen:  uint16(len(head) + len(data)),
		Flags:    flagUsed,
	}
	buf := fs.imageBuf()
	encodeData(buf, h, head, data)
	if fs.jnl != nil {
		fs.deferImage(addr, buf)
		return addr, nil
	}
	if err := fs.writeThrough(p, addr, buf); err != nil {
		return nilAddr, err
	}
	return addr, nil
}

// locateForRewrite finds the disk address and link targets of logical block
// blockNum without trusting the block itself. The address and prev link come
// from the chain walked forward from First; the next link comes from the
// chain walked backward from Last (or wraps to the head for the tail). The
// walks tolerate corrupt blocks along the way: a corrupt block's link
// pointer is followed only when the block it names verifies and points back,
// which confirms the link through the neighbor's own checksum.
func (fs *FS) locateForRewrite(p sim.Proc, e *dirEntry, fileID, blockNum uint32) (addr, next, prev int32, err error) {
	if blockNum == 0 {
		// The head's prev points at itself by creation-time convention
		// (appends never rewrite it; backward walks stop at block 0).
		addr, prev = e.First, e.First
	} else {
		if prev, err = fs.walkEither(p, e, fileID, blockNum-1, true); err != nil {
			return nilAddr, nilAddr, nilAddr, err
		}
		if addr, err = fs.walkEither(p, e, fileID, blockNum, true); err != nil {
			return nilAddr, nilAddr, nilAddr, err
		}
	}
	if blockNum == uint32(e.Blocks)-1 {
		next = e.First // tail wraps to head
	} else {
		if next, err = fs.walkEither(p, e, fileID, blockNum+1, false); err != nil {
			return nilAddr, nilAddr, nilAddr, err
		}
	}
	return addr, next, prev, nil
}

// walkEither walks to logical block `to` in the preferred direction, falling
// back to the opposite one when an unconfirmable corrupt block lies on the
// preferred path — with more than one corrupt block in a chain, the two ends
// reach different targets. When both ends stop short (a corrupt block whose
// rotted link names no neighbor on one side, another on the other), the
// preferred walk runs once more searching the volume for each such block's
// neighbor.
func (fs *FS) walkEither(p sim.Proc, e *dirEntry, fileID, to uint32, forward bool) (int32, error) {
	addr, err := fs.walkRepair(p, e, fileID, to, forward, false)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		return addr, err
	}
	for _, dir := range [2]bool{!forward, forward} {
		if alt, altErr := fs.walkRepair(p, e, fileID, to, dir, dir == forward); altErr == nil {
			return alt, nil
		}
	}
	return nilAddr, err
}

// walkRepair returns the disk address of logical block `to`, walking forward
// from First (or backward from Last) and stepping over corrupt blocks when
// their link is confirmed by the named neighbor's verified back pointer. With
// search, a corrupt block whose link names no such neighbor is stepped over
// to the one linkedTo finds.
func (fs *FS) walkRepair(p sim.Proc, e *dirEntry, fileID, to uint32, forward, search bool) (int32, error) {
	at := e.First
	n := uint32(0)
	if !forward {
		at = e.Last
		n = uint32(e.Blocks) - 1
	}
	for {
		if n == to {
			return at, nil
		}
		raw, err := fs.readCached(p, at)
		if err != nil {
			return nilAddr, err
		}
		// The raw header is read before verification: if the block is
		// corrupt, its link pointer is a candidate to be confirmed below.
		h := decodeHeader(raw)
		cand, candNum := h.Next, n+1
		if !forward {
			cand, candNum = h.Prev, n-1
		}
		if sumOK(at, raw, dataSumOff) {
			if h.FileID != fileID || h.Flags&flagUsed == 0 || h.BlockNum != n {
				return nilAddr, fmt.Errorf("%w: walk of file %d found wrong block at %d", ErrCorrupt, fileID, at)
			}
		} else {
			fs.invalidate(at)
			if !fs.confirmLink(p, cand, fileID, candNum, at, forward) {
				found := false
				if search {
					cand, found = fs.linkedTo(p, fileID, candNum, at, forward)
				}
				if !found {
					return nilAddr, fmt.Errorf("%w: file %d block %d at %d is corrupt and its neighbor cannot confirm the chain", ErrCorrupt, fileID, n, at)
				}
			}
		}
		at, n = cand, candNum
	}
}

// confirmLink reports whether a corrupt block's claimed neighbor at cand
// verifies as (fileID, num) and points back at the corrupt block — the
// neighbor's own checksum then vouches for the link.
func (fs *FS) confirmLink(p sim.Proc, cand int32, fileID, num uint32, back int32, forward bool) bool {
	if !fs.liveData(cand) {
		return false
	}
	raw, err := fs.readCached(p, cand)
	if err != nil || !sumOK(cand, raw, dataSumOff) {
		return false
	}
	h := decodeHeader(raw)
	if h.FileID != fileID || h.Flags&flagUsed == 0 || h.BlockNum != num {
		return false
	}
	if forward {
		return h.Prev == back
	}
	return h.Next == back
}

// linkedTo finds the neighbor (fileID, num) of the corrupt block at back
// whose own verified link names back: the block the location map holds for
// it, else the nearest such block of the data region, searched outward from
// back. Only a repair walk that found no other way pays for the search.
func (fs *FS) linkedTo(p sim.Proc, fileID, num uint32, back int32, forward bool) (int32, bool) {
	if a, ok := fs.loc[fileKey{fileID: fileID, blockNum: num}]; ok && fs.confirmLink(p, a, fileID, num, back, forward) {
		return a, true
	}
	for d := int32(1); back-d >= int32(fs.sb.DataStart) || back+d < fs.dataEnd(); d++ {
		for _, a := range [2]int32{back + d, back - d} {
			if fs.confirmLink(p, a, fileID, num, back, forward) {
				return a, true
			}
		}
	}
	return nilAddr, false
}

// Delete removes a file, traversing the chain and explicitly freeing each
// block — the O(n/p) algorithm the paper measured at ~20 ms per block. It
// returns the number of blocks freed.
func (fs *FS) Delete(p sim.Proc, fileID uint32) (int, error) {
	return fs.deleteFile(p, fileID, false)
}

// DeleteFast removes a file without the per-block flag-clear rewrite: the
// chain is still walked and verified, but blocks are freed in the bitmap
// only. That is exactly the state journal-mode deletes already leave (the
// chain stays intact on disk; the bitmap is authoritative, enforced by the
// liveData guard, and Fsck accepts freed-but-flagged blocks), so the only
// thing given up is the legacy EFS flag-clear resiliency on unjournaled
// volumes — in exchange the per-block device write disappears and a delete
// costs only the chain's track reads.
func (fs *FS) DeleteFast(p sim.Proc, fileID uint32) (int, error) {
	return fs.deleteFile(p, fileID, true)
}

func (fs *FS) deleteFile(p sim.Proc, fileID uint32, fast bool) (int, error) {
	bb, i, err := fs.findEntry(p, fileID)
	if err != nil {
		return 0, err
	}
	e := bb.b.Entries[i]
	freed := 0
	addr := e.First
	for n := 0; n < int(e.Blocks); n++ {
		raw, err := fs.readCached(p, addr)
		if err != nil {
			return freed, err
		}
		if err := verifyData(addr, raw); err != nil {
			fs.invalidate(addr)
			return freed, fmt.Errorf("chain of file %d: %w", fileID, err)
		}
		h := decodeHeader(raw)
		if h.FileID != fileID || h.Flags&flagUsed == 0 {
			return freed, fmt.Errorf("%w: chain of file %d broken at %d", ErrCorrupt, fileID, addr)
		}
		next := h.Next
		if fs.jnl != nil {
			// Journal mode never touches committed blocks in place: the
			// chain stays intact on disk until the commit's bitmap image
			// frees it, so a crash leaves the file whole-or-gone. Deferred
			// writes to the doomed block are dropped, and the free waits in
			// the journal so the block cannot be reallocated while the
			// committed state still references it.
			fs.jnl.dropDeferred(addr)
			fs.invalidate(addr)
			fs.deferFree(addr)
		} else if fast {
			// Fast free: bitmap only; the stale on-disk header is harmless
			// because block resolution never trusts a header the bitmap
			// doesn't vouch for.
			fs.invalidate(addr)
			fs.freeBlock(addr)
		} else {
			// Explicitly mark the block free on disk, as EFS did for
			// resiliency.
			h.Flags = 0
			copy(fs.scratch, raw)
			encodeHeader(fs.scratch, h)
			if err := fs.writeThrough(p, addr, fs.scratch); err != nil {
				return freed, err
			}
			fs.invalidate(addr)
			fs.freeBlock(addr)
		}
		freed++
		addr = next
	}
	// Remove the directory entry (swap with last).
	entries := bb.b.Entries
	entries[i] = entries[len(entries)-1]
	bb.b.Entries = entries[:len(entries)-1]
	bb.dirty = true
	if err := fs.maybeCommit(p); err != nil {
		return freed, err
	}
	return freed, nil
}

// ListFiles returns every file id on the volume, in directory order.
func (fs *FS) ListFiles(p sim.Proc) ([]uint32, error) {
	var ids []uint32
	for idx := 0; idx < int(fs.sb.DirBuckets); idx++ {
		ch, err := fs.loadChainByIndex(p, idx)
		if err != nil {
			return nil, err
		}
		for _, bb := range ch.blocks {
			for _, e := range bb.b.Entries {
				ids = append(ids, e.FileID)
			}
		}
	}
	return ids, nil
}

// loadChainByIndex returns directory bucket chain idx, reading its blocks
// on first use.
func (fs *FS) loadChainByIndex(p sim.Proc, idx int) (*bucketChain, error) {
	if ch, ok := fs.buckets[idx]; ok {
		return ch, nil
	}
	ch := &bucketChain{}
	addr := int32(1 + idx)
	for addr != nilAddr {
		raw, err := fs.readCached(p, addr)
		if err != nil {
			return nil, err
		}
		if err := verifyBucket(addr, raw); err != nil {
			fs.invalidate(addr)
			return nil, err
		}
		b, err := decodeBucket(raw)
		if err != nil {
			return nil, err
		}
		ch.blocks = append(ch.blocks, &bucketBlock{addr: addr, b: b})
		addr = b.Overflow
	}
	fs.buckets[idx] = ch
	return ch, nil
}

// allocBlock allocates a data block, preferring near for locality.
func (fs *FS) allocBlock(near int32) int32 {
	i := fs.bm.alloc(int(near), int(fs.sb.DataStart))
	if i < 0 {
		return nilAddr
	}
	fs.dirty.bitmap = true
	return int32(i)
}

func (fs *FS) freeBlock(addr int32) {
	fs.bm.clear(int(addr))
	fs.dirty.bitmap = true
}

// findBlock locates logical block blockNum of the file, using (in order of
// preference) the location map, then a linked-list walk from the closest of
// the file's first block, last block, and the caller's hint — exactly the
// three starting points the paper lists.
// liveData reports whether addr is a data-region block the bitmap still
// vouches for. A freed block can carry a perfectly valid header — journal
// mode leaves deleted chains untouched on disk, so after a delete+recreate
// two blocks can claim the same (file, block) identity — which means a
// header match alone must never resolve a file block. Blocks with a
// deferred free are already dead to readers even though their bit stays
// set until the next commit.
func (fs *FS) liveData(addr int32) bool {
	if addr < int32(fs.sb.DataStart) || addr >= fs.dataEnd() || !fs.bm.isSet(int(addr)) {
		return false
	}
	if fs.jnl != nil {
		for _, a := range fs.jnl.free {
			if a == addr {
				return false
			}
		}
	}
	return true
}

func (fs *FS) findBlock(p sim.Proc, e *dirEntry, fileID, blockNum uint32, hint int32) (int32, []byte, error) {
	if addr, ok := fs.loc[fileKey{fileID: fileID, blockNum: blockNum}]; ok && fs.liveData(addr) {
		raw, err := fs.readCached(p, addr)
		if err != nil {
			return nilAddr, nil, err
		}
		if sumOK(addr, raw, dataSumOff) {
			h := decodeHeader(raw)
			if h.FileID == fileID && h.BlockNum == blockNum && h.Flags&flagUsed != 0 {
				fs.m.locHits.Add(1)
				return addr, raw, nil
			}
		} else {
			// A corrupt block cannot vouch for the mapping; drop it from
			// the cache and let the chain walk decide (it will report the
			// corruption if the chain really does lead here).
			fs.invalidate(addr)
		}
		// Stale mapping; fall through to a walk.
		delete(fs.loc, fileKey{fileID: fileID, blockNum: blockNum})
	} else if ok {
		// The mapped block is no longer allocated: the mapping outlived
		// its file. Drop it and walk.
		delete(fs.loc, fileKey{fileID: fileID, blockNum: blockNum})
	}

	// Candidate anchors: (address, block number) pairs — both ends and a
	// valid hint, in an array so the lookup allocates nothing.
	type anchor struct {
		addr int32
		num  uint32
	}
	cands := [3]anchor{
		{e.First, 0},
		{e.Last, uint32(e.Blocks - 1)},
	}
	n := 2
	if hint != nilAddr && fs.liveData(hint) {
		// Validate the hint: it must be a live block, checksum clean, and
		// point into the correct file; a bad hint is ignored, never fatal.
		raw, err := fs.readCached(p, hint)
		if err == nil && sumOK(hint, raw, dataSumOff) {
			if h := decodeHeader(raw); h.Flags&flagUsed != 0 && h.FileID == fileID && h.BlockNum < uint32(e.Blocks) {
				if h.BlockNum == blockNum {
					return hint, raw, nil
				}
				cands[n] = anchor{hint, h.BlockNum}
				n++
			}
		}
	}
	best := cands[0]
	bestDist := distance(best.num, blockNum)
	for _, c := range cands[1:n] {
		if d := distance(c.num, blockNum); d < bestDist {
			best, bestDist = c, d
		}
	}

	fs.m.walks.Add(1)
	addr, num := best.addr, best.num
	for {
		raw, err := fs.readCached(p, addr)
		if err != nil {
			return nilAddr, nil, err
		}
		if err := verifyData(addr, raw); err != nil {
			fs.invalidate(addr)
			return nilAddr, nil, fmt.Errorf("file %d block %d: %w", fileID, num, err)
		}
		h := decodeHeader(raw)
		if h.FileID != fileID || h.Flags&flagUsed == 0 || h.BlockNum != num {
			return nilAddr, nil, fmt.Errorf("%w: walk of file %d found wrong block at %d", ErrCorrupt, fileID, addr)
		}
		if num == blockNum {
			return addr, raw, nil
		}
		fs.m.walkSteps.Add(1)
		if num < blockNum {
			addr, num = h.Next, num+1
		} else {
			addr, num = h.Prev, num-1
		}
	}
}

func distance(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}
