package efs

import (
	"fmt"

	"bridge/internal/sim"
)

// CheckReport summarizes a volume consistency check.
type CheckReport struct {
	Files       int
	ChainBlocks int // data blocks reachable through file chains
	Problems    []string
}

// OK reports whether the volume passed.
func (r CheckReport) OK() bool { return len(r.Problems) == 0 }

// TextBytes is the length of the findings' text, what a report costs on the
// wire beyond its fixed part.
func (r CheckReport) TextBytes() int {
	n := 0
	for _, p := range r.Problems {
		n += len(p)
	}
	return n
}

func (r *CheckReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Check verifies the volume's invariants — an fsck:
//
//  1. every directory entry's chain walks First→Last in exactly Blocks
//     steps, with each block carrying the right file id, consecutive block
//     numbers, and the used flag;
//  2. no block belongs to two files;
//  3. every chained block and directory overflow bucket is marked used in
//     the allocation bitmap, and no unreachable data block is;
//  4. chain endpoints in the directory match the blocks encountered.
//
// Check reads through the cache and charges simulated disk time like any
// other operation. Run it on a quiescent volume (metadata need not be
// synced; the in-memory state is authoritative).
func (fs *FS) Check(p sim.Proc) (CheckReport, error) {
	var rep CheckReport
	owner := make(map[int32]uint32) // block -> file id
	overflow := make(map[int32]bool)

	for idx := 0; idx < int(fs.sb.DirBuckets); idx++ {
		ch, err := fs.loadChainByIndex(p, idx)
		if err != nil {
			return rep, fmt.Errorf("efs: check: loading bucket %d: %w", idx, err)
		}
		for bi, bb := range ch.blocks {
			if bi > 0 {
				overflow[bb.addr] = true
			}
			for _, e := range bb.b.Entries {
				rep.Files++
				fs.checkFile(p, &rep, e, owner)
			}
		}
	}

	// Bitmap cross-check over the data region (the journal region is
	// reserved, not leaked). Blocks whose free is journaled but not yet
	// committed are still set in the bitmap by design; the in-memory
	// deferred-free list is authoritative for them.
	pf := fs.pendingFreeSet()
	for a := int(fs.sb.DataStart); a < int(fs.dataEnd()); a++ {
		addr := int32(a)
		_, chained := owner[addr]
		reachable := chained || overflow[addr]
		if reachable && !fs.bm.isSet(a) {
			rep.problemf("block %d is in use but marked free in the bitmap", a)
		}
		if !reachable && fs.bm.isSet(a) && !pf[addr] {
			rep.problemf("block %d is marked used but unreachable (leaked)", a)
		}
	}
	return rep, nil
}

// Repair rebuilds the allocation bitmap from the directory and file chains:
// leaked blocks are freed and chained-but-free blocks are re-marked used.
// Chain and directory damage (cross-linked or broken files) is beyond
// repair and is only reported. Returns the repaired report (re-running
// Check) and the number of bitmap corrections.
func (fs *FS) Repair(p sim.Proc) (CheckReport, int, error) {
	owner := make(map[int32]uint32)
	overflow := make(map[int32]bool)
	var rep CheckReport
	for idx := 0; idx < int(fs.sb.DirBuckets); idx++ {
		ch, err := fs.loadChainByIndex(p, idx)
		if err != nil {
			return rep, 0, fmt.Errorf("efs: repair: loading bucket %d: %w", idx, err)
		}
		for bi, bb := range ch.blocks {
			if bi > 0 {
				overflow[bb.addr] = true
			}
			for _, e := range bb.b.Entries {
				fs.checkFile(p, &rep, e, owner)
			}
		}
	}
	fixes := 0
	pf := fs.pendingFreeSet()
	for a := int(fs.sb.DataStart); a < int(fs.dataEnd()); a++ {
		_, chained := owner[int32(a)]
		reachable := chained || overflow[int32(a)]
		switch {
		case reachable && !fs.bm.isSet(a):
			fs.bm.set(a)
			fixes++
		case !reachable && fs.bm.isSet(a) && !pf[int32(a)]:
			fs.bm.clear(a)
			fixes++
		}
	}
	if fixes > 0 {
		fs.dirty.bitmap = true
		if err := fs.Sync(p); err != nil {
			return rep, fixes, err
		}
	}
	rep2, err := fs.Check(p)
	return rep2, fixes, err
}

// checkFile walks one file's chain.
func (fs *FS) checkFile(p sim.Proc, rep *CheckReport, e dirEntry, owner map[int32]uint32) {
	if e.Blocks == 0 {
		if e.First != nilAddr || e.Last != nilAddr {
			rep.problemf("file %d: empty but endpoints set (%d, %d)", e.FileID, e.First, e.Last)
		}
		return
	}
	if e.First == nilAddr || e.Last == nilAddr {
		rep.problemf("file %d: %d blocks but missing endpoints", e.FileID, e.Blocks)
		return
	}
	addr := e.First
	var prev int32 = nilAddr
	for n := int32(0); n < e.Blocks; n++ {
		if addr < int32(fs.sb.DataStart) || addr >= fs.dataEnd() {
			rep.problemf("file %d: block %d chain points outside the data region (%d)", e.FileID, n, addr)
			return
		}
		if other, taken := owner[addr]; taken {
			rep.problemf("file %d: block %d at %d already belongs to file %d", e.FileID, n, addr, other)
			return
		}
		owner[addr] = e.FileID
		raw, err := fs.readCached(p, addr)
		if err != nil {
			rep.problemf("file %d: reading block %d at %d: %v", e.FileID, n, addr, err)
			return
		}
		if !sumOK(addr, raw, dataSumOff) {
			// Report the checksum, then keep checking the header fields —
			// they often pinpoint what the corruption hit.
			rep.problemf("file %d: block %d at %d checksum mismatch", e.FileID, n, addr)
		}
		h := decodeHeader(raw)
		if h.Flags&flagUsed == 0 {
			rep.problemf("file %d: block %d at %d not marked used", e.FileID, n, addr)
		}
		if h.FileID != e.FileID {
			rep.problemf("file %d: block %d at %d carries file id %d", e.FileID, n, addr, h.FileID)
		}
		if h.BlockNum != uint32(n) {
			rep.problemf("file %d: block at %d numbered %d, expected %d", e.FileID, addr, h.BlockNum, n)
		}
		if n > 0 && h.Prev != prev {
			rep.problemf("file %d: block %d at %d has prev %d, expected %d", e.FileID, n, addr, h.Prev, prev)
		}
		if n == e.Blocks-1 {
			if addr != e.Last {
				rep.problemf("file %d: chain ends at %d but directory says last is %d", e.FileID, addr, e.Last)
			}
			if h.Next != e.First {
				rep.problemf("file %d: tail at %d does not wrap to head (%d vs %d)", e.FileID, addr, h.Next, e.First)
			}
		}
		rep.ChainBlocks++
		prev, addr = addr, h.Next
	}
}
