package raft

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"bridge/internal/disk"
	"bridge/internal/sim"
)

// State is the persistent consensus state: everything a replica must
// recover after a kill to keep its promises — the current term, who it
// voted for in that term, the compacted snapshot, and the log suffix
// beyond it. It is written atomically as one image.
//
// Snapshot is immutable: a Node replaces the slice (Compact, a leader's
// install) and never writes into it, so a Store may retain it and hand it
// back without copying. Entries handed to Save is the node's live log,
// which its owner will append to and truncate once Save returns: a Store
// that keeps it must copy it.
type State struct {
	Term      uint64
	VotedFor  int
	SnapIndex uint64
	SnapTerm  uint64
	Snapshot  []byte
	Entries   []Entry
}

// Store persists consensus state. Save must be a durability barrier: when
// it returns, a crash cannot roll the state back past it. Load reports
// ok=false on a fresh (never-saved) store.
type Store interface {
	Load(p sim.Proc) (st State, ok bool, err error)
	Save(p sim.Proc, st State) error
}

// MemStore is an always-durable in-memory Store for tests.
type MemStore struct {
	st State
	ok bool
}

// Load returns the last saved state.
func (m *MemStore) Load(p sim.Proc) (State, bool, error) { return cloneState(m.st), m.ok, nil }

// Save retains a copy of st.
func (m *MemStore) Save(p sim.Proc, st State) error {
	m.st = cloneState(st)
	m.ok = true
	return nil
}

// cloneState copies the log suffix and shares the immutable snapshot.
func cloneState(st State) State {
	st.Entries = append([]Entry(nil), st.Entries...)
	return st
}

// DiskStore persists State on a simulated disk with a ping-pong layout:
// blocks 0 and 1 are alternating CRC'd headers, the rest splits into two
// payload regions written on alternating saves. A save gob-encodes the
// whole state, writes the payload blocks that changed since that region
// was last written, then the header, then syncs — so a torn save (the
// header missing or corrupt) falls back to the other region's intact
// image, and a Save that returned can never be lost. The disk should run
// write-back so the sync is the only barrier per save.
type DiskStore struct {
	d            *disk.Disk
	bs           int
	regionBlocks int
	seq          uint64
	last         [2][][]byte // per-region block images as of their last save
}

const storeMagic = "BRFTLG1\x00"

// NewDiskStore wraps a disk. The geometry needs at least 4 blocks; the
// usable capacity per image is (NumBlocks-2)/2 blocks.
func NewDiskStore(d *disk.Disk) (*DiskStore, error) {
	cfg := d.Config()
	if cfg.NumBlocks < 4 {
		return nil, fmt.Errorf("raft: store disk of %d blocks, need at least 4", cfg.NumBlocks)
	}
	return &DiskStore{d: d, bs: cfg.BlockSize, regionBlocks: (cfg.NumBlocks - 2) / 2}, nil
}

// Load reads both headers, validates their payloads, and returns the
// state with the highest intact sequence number. It also resets the
// dirty-block cache, so it must be called after every disk Restore.
func (s *DiskStore) Load(p sim.Proc) (State, bool, error) {
	s.last = [2][][]byte{}
	s.seq = 0
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
		if string(hdr[:8]) != storeMagic {
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
		var st State
		if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&st); err != nil {
			continue
		}
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

// Save writes st to the next region and syncs. Only blocks that differ
// from the region's previous image hit the disk, so steady-state saves
// (an appended entry, a term bump) cost a couple of block writes plus the
// sync barrier.
func (s *DiskStore) Save(p sim.Proc, st State) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return fmt.Errorf("raft: encode state: %w", err)
	}
	img := buf.Bytes()
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
	copy(hdr, storeMagic)
	binary.BigEndian.PutUint64(hdr[8:16], s.seq)
	binary.BigEndian.PutUint32(hdr[16:20], uint32(len(img)))
	binary.BigEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(img))
	if err := s.d.WriteBlock(p, region, hdr); err != nil {
		return err
	}
	return s.d.Sync(p)
}
