package efs

import (
	"time"

	"bridge/internal/sim"
)

// The scrubber sweeps the volume in ascending block order, reading each
// allocated block straight from the device (bypassing the cache — the point
// is to verify the medium, not our own recent writes) and checking its
// checksum plus cheap header invariants. Corrupt blocks are recorded and
// evicted from the cache, so the next client read faults on them and — for
// replicated files — flows into read-repair.
//
// Sweeps are incremental: ScrubStep examines blocks until a simulated-time
// budget is spent, persisting its cursor on the FS, so a background scrub
// never monopolizes the disk. Free data blocks are skipped at zero cost.

// ScrubError describes one block that failed verification.
type ScrubError struct {
	Addr   int32
	FileID uint32 // best-effort owner from the block header; 0 for metadata
	Kind   string // "checksum", "header", or "io: <detail>"
}

// ScrubReport summarizes one scrub step (or full sweep).
type ScrubReport struct {
	Scanned int          // blocks examined (skipped free blocks not counted)
	Errors  []ScrubError // blocks that failed verification
	Wrapped bool         // the cursor passed the end of the volume
}

// ScrubStep verifies blocks from the persisted cursor until budget simulated
// time has elapsed (at least one block per call), wrapping at the end of the
// volume. A budget <= 0 means one full pass from the cursor's position.
func (fs *FS) ScrubStep(p sim.Proc, budget time.Duration) (ScrubReport, error) {
	var rep ScrubReport
	overflow, stale, err := fs.scrubSets(p)
	if err != nil {
		return rep, err
	}
	start := p.Now()
	// The sweep covers metadata and data; the journal region is excluded
	// (entry payloads are sealed for their home addresses, and replay CRCs
	// the records itself at mount).
	n := fs.dataEnd()
	if fs.scrubNext >= n {
		fs.scrubNext = 0
	}
	for {
		fs.scrubBlock(p, fs.scrubNext, &rep, overflow, stale)
		fs.scrubNext++
		if fs.scrubNext >= n {
			fs.scrubNext = 0
			rep.Wrapped = true
			break
		}
		if budget > 0 && p.Now()-start >= budget {
			break
		}
	}
	return rep, nil
}

// ScrubAll runs one full sweep of the volume from block 0, regardless of the
// incremental cursor (which it resets).
func (fs *FS) ScrubAll(p sim.Proc) (ScrubReport, error) {
	fs.scrubNext = 0
	return fs.ScrubStep(p, 0)
}

// scrubSets loads every directory chain so the sweep can tell overflow
// buckets apart from data blocks, and knows which allocated blocks have an
// on-disk copy nobody vouches for until the next Sync, so checking it would
// be meaningless: metadata dirty in memory (a freshly allocated overflow
// bucket may not have been written at all yet) and blocks whose free is
// pending (a deleted file's held tail never was).
func (fs *FS) scrubSets(p sim.Proc) (overflow, stale map[int32]bool, err error) {
	overflow = make(map[int32]bool)
	stale = make(map[int32]bool)
	for idx := 0; idx < int(fs.sb.DirBuckets); idx++ {
		ch, err := fs.loadChainByIndex(p, idx)
		if err != nil {
			return nil, nil, err
		}
		for bi, bb := range ch.blocks {
			if bi > 0 {
				overflow[bb.addr] = true
			}
			if bb.dirty {
				stale[bb.addr] = true
			}
		}
	}
	if fs.jnl != nil {
		for _, a := range fs.jnl.free {
			stale[a] = true
		}
	}
	return overflow, stale, nil
}

// scrubBlock examines a single block. I/O and verification failures are
// recorded in the report, never returned: a scrub sweep must survive the
// very corruption it exists to find.
func (fs *FS) scrubBlock(p sim.Proc, addr int32, rep *ScrubReport, overflow, stale map[int32]bool) {
	a := int(addr)
	if a >= int(fs.sb.DataStart) && !fs.bm.isSet(a) {
		return // free block: no contents to vouch for, no cost
	}
	if stale[addr] {
		return // on-disk copy is stale until the next Sync
	}
	if fs.deferred(addr) {
		return // journaled home write not yet committed; disk copy is stale
	}
	rep.Scanned++
	raw, err := fs.d.ReadBlock(p, a)
	if err != nil {
		rep.Errors = append(rep.Errors, ScrubError{Addr: addr, Kind: "io: " + err.Error()})
		return
	}
	sumOff := dataSumOff
	kindData := true
	switch {
	case a == 0:
		sumOff, kindData = superSumOff, false
	case a <= int(fs.sb.DirBuckets):
		sumOff, kindData = bucketSumOff, false
	case a < int(fs.sb.DataStart):
		sumOff, kindData = bitmapSumOff, false
	case overflow[addr]:
		sumOff, kindData = bucketSumOff, false
	}
	if !sumOK(addr, raw, sumOff) {
		var fileID uint32
		if kindData {
			fileID = decodeHeader(raw).FileID // best effort; untrusted
		}
		rep.Errors = append(rep.Errors, ScrubError{Addr: addr, FileID: fileID, Kind: "checksum"})
		// Evict any clean cached copy so the next access re-reads the
		// medium, fails verification, and triggers read-repair.
		fs.invalidate(addr)
		return
	}
	if !kindData {
		return
	}
	// Checksum holds; the header must still be internally sane.
	h := decodeHeader(raw)
	if h.Flags&flagUsed != 0 {
		lo, hi := int32(fs.sb.DataStart), fs.dataEnd()
		if h.Next < lo || h.Next >= hi || h.Prev < lo || h.Prev >= hi || int(h.DataLen) > DataBytes {
			rep.Errors = append(rep.Errors, ScrubError{Addr: addr, FileID: h.FileID, Kind: "header"})
			fs.invalidate(addr)
		}
	}
}
