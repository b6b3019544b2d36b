package raft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"bridge/internal/disk"
	"bridge/internal/msg/wire"
	"bridge/internal/sim"
)

// State is the persistent consensus state: everything a replica must
// recover after a kill to keep its promises — the current term, who it
// voted for in that term, the compacted snapshot, and the log suffix
// beyond it. Load returns it whole.
//
// Snapshot is immutable: a Node replaces the slice (Compact, a leader's
// install) and never writes into it, so a Store may retain it and hand it
// back without copying.
type State struct {
	Term      uint64
	VotedFor  int
	SnapIndex uint64
	SnapTerm  uint64
	Snapshot  []byte
	Entries   []Entry
}

// Edit is what one Flush changed in the persistent state. A store applies
// it to the state it holds, in this order:
//   - Term and VotedFor, which are always current;
//   - the snapshot, when Snap is set (Compact or an install replaced it),
//     dropping every entry it covers;
//   - the log edit, when From is nonzero: entries from index From on are
//     cut and Entries, the log from From on, takes their place.
//
// The snapshot goes first because the log truncation a compaction allows
// depends on it: a store that persists the parts separately must make the
// snapshot durable before the log edit. Entries is the node's live log,
// which its owner appends to and truncates once Save returns: a Store that
// keeps it must copy it.
type Edit struct {
	Term     uint64
	VotedFor int

	Snap      bool
	SnapIndex uint64
	SnapTerm  uint64
	Snapshot  []byte

	From    uint64
	Entries []Entry
}

// Store persists consensus state. Save must be a durability barrier: when
// it returns, a crash cannot roll the state back past it. Load reports
// ok=false on a fresh (never-saved) store, and an error on one it cannot
// read, never ok=false: a member that booted such a store as fresh would
// forget its vote and could vote twice in a term. A Node calls it before any
// Save, and the Entries it returns become the node's log, so the store
// must not keep them.
type Store interface {
	Load(p sim.Proc) (st State, ok bool, err error)
	Save(p sim.Proc, e Edit) error
}

// apply edits st in place; its Entries must not be shared.
func (st *State) apply(e Edit) {
	st.Term, st.VotedFor = e.Term, e.VotedFor
	if e.Snap {
		st.SnapIndex, st.SnapTerm, st.Snapshot = e.SnapIndex, e.SnapTerm, e.Snapshot
		st.Entries = dropThrough(st.Entries, e.SnapIndex)
	}
	if e.From != 0 {
		keep := len(st.Entries)
		if len(st.Entries) > 0 {
			keep = min(max(int(e.From)-int(st.Entries[0].Index), 0), keep)
		}
		clear(st.Entries[keep:])
		st.Entries = append(st.Entries[:keep], e.Entries...)
	}
}

// dropThrough removes the entries with index <= i from the front of ents,
// shifting the rest down so the backing array is reused and the dropped
// payloads are released.
func dropThrough(ents []Entry, i uint64) []Entry {
	k := 0
	for k < len(ents) && ents[k].Index <= i {
		k++
	}
	n := copy(ents, ents[k:])
	clear(ents[n:])
	return ents[:n]
}

// MemStore is an always-durable in-memory Store. It holds its own copy of
// the state and applies each Edit in place, so a save costs the entries it
// adds, not the whole log.
type MemStore struct {
	st State
	ok bool
}

// Load returns a copy of the saved state.
func (m *MemStore) Load(p sim.Proc) (State, bool, error) {
	st := m.st
	st.Entries = append([]Entry(nil), st.Entries...)
	return st, m.ok, nil
}

// Save applies e to the held state.
func (m *MemStore) Save(p sim.Proc, e Edit) error {
	m.st.apply(e)
	m.ok = true
	return nil
}

// DiskStore persists State on a simulated disk with a ping-pong layout:
// blocks 0 and 1 are alternating CRC'd headers, the rest splits into two
// payload regions written on alternating saves. A save applies the edit to
// the state it holds, encodes that whole state (package wire), writes the payload
// blocks that changed since that region was last written, then the header,
// then syncs — so a torn save (the header missing or corrupt) falls back to
// the other region's intact image, the snapshot and the log edit land
// together, and a Save that returned can never be lost. The disk should
// run write-back so the sync is the only barrier per save.
type DiskStore struct {
	d            *disk.Disk
	bs           int
	regionBlocks int
	seq          uint64
	st           State       // the state as of the last Load or Save
	img          []byte      // the last save's encoding, reused by the next
	last         [2][][]byte // per-region block images as of their last save
}

// A header is storeMagic (the format version is its digit), the save's
// sequence number, the payload's length and its CRC, then a CRC of those
// fields, so a header torn anywhere in them fails its own check. Version 1
// was a gob stream; version 2 is the State body of stateCodec.
const (
	storeVersion = 2
	storeMagic   = "BRFTLG2\x00"
	gobMagic     = "BRFTLG1\x00" // version 1's
	headerLen    = 28
)

// stateCodec encodes the persistent state, the one body of its table.
var stateCodec = wire.NewCodec([]any{State{}})

// StoreFormatError reports a store this build cannot read: a header of
// another format version, or a region whose checksums hold but whose state
// does not decode. Load never reports such a store as fresh.
type StoreFormatError struct {
	Version int   // the header's format version
	Err     error // why the state did not decode; nil for another version
}

func (e *StoreFormatError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("raft: store format version %d: %v", e.Version, e.Err)
	}
	return fmt.Sprintf("raft: store format version %d, this build reads version %d", e.Version, storeVersion)
}

func (e *StoreFormatError) Unwrap() error { return e.Err }

// putHeader writes a save's header at the front of hdr.
func putHeader(hdr []byte, magic string, seq uint64, payload []byte) {
	copy(hdr, magic)
	binary.BigEndian.PutUint64(hdr[8:16], seq)
	binary.BigEndian.PutUint32(hdr[16:20], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(hdr[24:headerLen], crc32.ChecksumIEEE(hdr[:24]))
}

// NewDiskStore wraps a disk. The geometry needs at least 4 blocks, each
// large enough for a header; the usable capacity per image is
// (NumBlocks-2)/2 blocks.
func NewDiskStore(d *disk.Disk) (*DiskStore, error) {
	cfg := d.Config()
	if cfg.NumBlocks < 4 || cfg.BlockSize < headerLen {
		return nil, fmt.Errorf("raft: store disk of %d blocks of %d bytes, need at least 4 of %d", cfg.NumBlocks, cfg.BlockSize, headerLen)
	}
	return &DiskStore{d: d, bs: cfg.BlockSize, regionBlocks: (cfg.NumBlocks - 2) / 2}, nil
}

// Load reads both headers, validates their payloads, and returns the
// state with the highest intact sequence number. A region whose header is
// missing or fails its own checksum, or whose payload fails its checksum,
// is skipped: it is a save a crash cut short. A header of another format
// version, or a checksummed payload that does not decode, fails Load with a
// StoreFormatError. It also resets the held state and the dirty-block
// cache, so it must be called after every disk Restore.
func (s *DiskStore) Load(p sim.Proc) (State, bool, error) {
	s.last = [2][][]byte{}
	s.seq = 0
	s.st = State{}
	var (
		best    State
		bestSeq uint64
		found   bool
	)
	for region := 0; region < 2; region++ {
		hdr, err := s.d.ReadBlock(p, region)
		if err != nil {
			return State{}, false, err
		}
		if string(hdr[:len(gobMagic)]) == gobMagic {
			return State{}, false, &StoreFormatError{Version: 1}
		}
		if string(hdr[:len(storeMagic)]) != storeMagic || crc32.ChecksumIEEE(hdr[:24]) != binary.BigEndian.Uint32(hdr[24:headerLen]) {
			continue
		}
		seq := binary.BigEndian.Uint64(hdr[8:16])
		length := int(binary.BigEndian.Uint32(hdr[16:20]))
		crc := binary.BigEndian.Uint32(hdr[20:24])
		if length < 0 || length > s.regionBlocks*s.bs || int(seq%2) != region {
			continue
		}
		buf, err := s.readRegion(p, region, length)
		if err != nil {
			return State{}, false, err
		}
		if crc32.ChecksumIEEE(buf) != crc {
			continue
		}
		body, err := stateCodec.Decode(buf)
		if err != nil {
			return State{}, false, &StoreFormatError{Version: storeVersion, Err: err}
		}
		st := body.(State)
		if !found || seq > bestSeq {
			best, bestSeq, found = st, seq, true
		}
		if seq > s.seq {
			s.seq = seq
		}
	}
	if !found {
		return State{}, false, nil
	}
	s.st = best
	s.st.Entries = append([]Entry(nil), best.Entries...)
	return best, true, nil
}

func (s *DiskStore) readRegion(p sim.Proc, region, length int) ([]byte, error) {
	base := 2 + region*s.regionBlocks
	nb := (length + s.bs - 1) / s.bs
	buf := make([]byte, 0, nb*s.bs)
	for i := 0; i < nb; i++ {
		b, err := s.d.ReadBlock(p, base+i)
		if err != nil {
			return nil, err
		}
		buf = append(buf, b...)
	}
	return buf[:length], nil
}

// Save applies e, writes the whole state to the next region and syncs.
// Only blocks that differ from the region's previous image hit the disk,
// so steady-state saves (an appended entry, a term bump) cost a couple of
// block writes plus the sync barrier.
func (s *DiskStore) Save(p sim.Proc, e Edit) error {
	s.st.apply(e)
	img, err := stateCodec.Append(s.img[:0], s.st)
	if err != nil {
		return fmt.Errorf("raft: encode state: %w", err)
	}
	s.img = img
	if len(img) > s.regionBlocks*s.bs {
		return fmt.Errorf("raft: state of %d bytes exceeds store capacity %d", len(img), s.regionBlocks*s.bs)
	}
	s.seq++
	region := int(s.seq % 2)
	base := 2 + region*s.regionBlocks
	nb := (len(img) + s.bs - 1) / s.bs
	if s.last[region] == nil {
		s.last[region] = make([][]byte, s.regionBlocks)
	}
	for i := 0; i < nb; i++ {
		blk := make([]byte, s.bs)
		end := (i + 1) * s.bs
		if end > len(img) {
			end = len(img)
		}
		copy(blk, img[i*s.bs:end])
		if prev := s.last[region][i]; prev != nil && bytes.Equal(prev, blk) {
			continue
		}
		if err := s.d.WriteBlock(p, base+i, blk); err != nil {
			return err
		}
		s.last[region][i] = blk
	}
	hdr := make([]byte, s.bs)
	putHeader(hdr, storeMagic, s.seq, img)
	if err := s.d.WriteBlock(p, region, hdr); err != nil {
		return err
	}
	return s.d.Sync(p)
}
