package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
)

// A FileStore is the durable backing medium of a file-backed Disk: a
// block-addressed image file that survives process restarts, so a node
// crash in the simulation — or a real restart of the host process — only
// loses what the device's write cache had not synced. The layout is a
// fixed header (magic, geometry, mount count, clean flag, op counters), a
// written-block bitmap, then the blocks themselves at fixed offsets.
//
// Write ordering contract: WriteBlockAt goes straight to the file but is
// not forced to the platter; Sync persists the bitmap and header and
// fsyncs. The Disk calls WriteBlockAt only for committed (stable) blocks,
// so the file always holds a superset of the simulated stable medium. Sync
// sets the header's clean flag, unless the owner holds it down (HoldDirty),
// and the next write clears it, so a store clean at open holds exactly the
// bytes of its last Sync.

var storeMagic = [8]byte{'B', 'R', 'D', 'G', 'D', 'S', 'K', '1'}

const (
	storeVersion   = 1
	storeHeaderLen = 64
)

// ErrBadStore is returned when opening a corrupt or mismatched store file.
var ErrBadStore = errors.New("disk: bad file store")

// FileStore is a durable block store backed by one image file. Safe for
// concurrent use; normally owned by a single Disk.
type FileStore struct {
	mu         sync.Mutex
	f          *os.File
	blockSize  int
	numBlocks  int
	mountCount uint32
	clean      bool
	openClean  bool   // clean when opened, before the open dirtied it
	held       bool   // HoldDirty: Sync leaves the clean flag down
	written    []byte // bitmap mirror, one bit per block
	werr       error  // first host write error, surfaced by Sync
}

// OpenFileStore opens the store at path, creating and formatting it if it
// does not exist. An existing store must match the requested geometry.
// Opening bumps the mount count and marks the store dirty until the next
// Sync; CleanAtOpen reports whether it was clean before.
func OpenFileStore(path string, blockSize, numBlocks int) (*FileStore, error) {
	if blockSize <= 0 || numBlocks <= 0 {
		return nil, fmt.Errorf("%w: geometry %dx%d", ErrBadStore, numBlocks, blockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: opening store: %w", err)
	}
	s := &FileStore{
		f:         f,
		blockSize: blockSize,
		numBlocks: numBlocks,
		written:   make([]byte, (numBlocks+7)/8),
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: opening store: %w", err)
	}
	if fi.Size() == 0 {
		// Fresh store: lay down the header and bitmap, sized for the full
		// device so block offsets never move.
		err = s.initFile()
	} else {
		err = s.readHeader(fi.Size())
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	s.mountCount++
	s.openClean, s.clean = s.clean, false
	if err := s.writeHeader(0, 0, 0, true); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// BlockSize returns the store's block size in bytes.
func (s *FileStore) BlockSize() int { return s.blockSize }

// NumBlocks returns the store's capacity in blocks.
func (s *FileStore) NumBlocks() int { return s.numBlocks }

// MountCount returns how many times the store has been opened, including
// the current open.
func (s *FileStore) MountCount() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mountCount
}

// CleanAtOpen reports whether nothing was written to the store between its
// last Sync and this open. A fresh store is not clean.
func (s *FileStore) CleanAtOpen() bool { return s.openClean }

// HoldDirty keeps the header's clean flag down while hold is true: Sync
// still persists every block but leaves the store dirty, so its next open
// is not clean at open. A held store that is clean now is dirtied at once.
func (s *FileStore) HoldDirty(hold bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held = hold
	if hold && s.clean {
		s.clean = false
		if err := s.writeHeader(0, 0, 0, false); err != nil {
			s.setErr(err)
		}
	}
}

func (s *FileStore) bitmapOff() int64 { return storeHeaderLen }
func (s *FileStore) blockOff(bn int) int64 {
	return storeHeaderLen + int64(len(s.written)) + int64(bn)*int64(s.blockSize)
}

func (s *FileStore) initFile() error {
	if err := s.f.Truncate(s.blockOff(s.numBlocks)); err != nil {
		return fmt.Errorf("disk: sizing store: %w", err)
	}
	return s.writeHeader(0, 0, 0, false)
}

// readHeader loads an existing store's header and bitmap; size is the
// file's length, which a store's geometry fixes.
func (s *FileStore) readHeader(size int64) error {
	if size < storeHeaderLen {
		return fmt.Errorf("%w: %d-byte file", ErrBadStore, size)
	}
	hdr := make([]byte, storeHeaderLen)
	if _, err := s.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("disk: reading store header: %w", err)
	}
	if !bytes.Equal(hdr[:8], storeMagic[:]) {
		return fmt.Errorf("%w: bad magic", ErrBadStore)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != storeVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadStore, v, storeVersion)
	}
	bs := int(binary.LittleEndian.Uint32(hdr[12:]))
	nb := int(binary.LittleEndian.Uint32(hdr[16:]))
	if bs != s.blockSize || nb != s.numBlocks {
		return fmt.Errorf("%w: store geometry %dx%d, want %dx%d", ErrBadStore, nb, bs, s.numBlocks, s.blockSize)
	}
	if want := s.blockOff(s.numBlocks); size != want {
		return fmt.Errorf("%w: %d-byte file, want %d", ErrBadStore, size, want)
	}
	s.mountCount = binary.LittleEndian.Uint32(hdr[20:])
	s.clean = binary.LittleEndian.Uint32(hdr[24:]) == 1
	if _, err := s.f.ReadAt(s.written, s.bitmapOff()); err != nil {
		return fmt.Errorf("disk: reading store bitmap: %w", err)
	}
	return nil
}

// writeHeader persists the header; callers own s.mu (or the store is
// still private). The op counters are cumulative device tallies.
func (s *FileStore) writeHeader(reads, writes, syncs uint64, fsync bool) error {
	hdr := make([]byte, storeHeaderLen)
	copy(hdr, storeMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], storeVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(s.blockSize))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(s.numBlocks))
	binary.LittleEndian.PutUint32(hdr[20:], s.mountCount)
	var clean uint32
	if s.clean {
		clean = 1
	}
	binary.LittleEndian.PutUint32(hdr[24:], clean)
	binary.LittleEndian.PutUint64(hdr[28:], reads)
	binary.LittleEndian.PutUint64(hdr[36:], writes)
	binary.LittleEndian.PutUint64(hdr[44:], syncs)
	if _, err := s.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("disk: writing store header: %w", err)
	}
	if fsync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("disk: syncing store: %w", err)
		}
	}
	return nil
}

// ReadAll loads every written block, returning a device-shaped slice with
// nil entries for never-written blocks.
func (s *FileStore) ReadAll() ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blocks := make([][]byte, s.numBlocks)
	for bn := 0; bn < s.numBlocks; bn++ {
		if s.written[bn/8]&(1<<(bn%8)) == 0 {
			continue
		}
		b := make([]byte, s.blockSize)
		if _, err := s.f.ReadAt(b, s.blockOff(bn)); err != nil {
			return nil, fmt.Errorf("disk: reading store block %d: %w", bn, err)
		}
		blocks[bn] = b
	}
	return blocks, nil
}

// WriteBlockAt stores one block and its bitmap bit in the backing file
// without forcing them down — Sync provides the barrier. A host write
// error is remembered and surfaced by the next Sync; the simulation treats
// the host file system as reliable, so this never fails an individual
// simulated write.
func (s *FileStore) WriteBlockAt(bn int, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bn < 0 || bn >= s.numBlocks || len(data) != s.blockSize {
		s.setErr(fmt.Errorf("%w: write of %d bytes at block %d", ErrBadStore, len(data), bn))
		return
	}
	if s.clean {
		s.clean = false
		// Re-dirty the header before the data lands so a clean flag never
		// describes a store with unsynced writes.
		if err := s.writeHeader(0, 0, 0, false); err != nil {
			s.setErr(err)
		}
	}
	if _, err := s.f.WriteAt(data, s.blockOff(bn)); err != nil {
		s.setErr(fmt.Errorf("disk: writing store block %d: %w", bn, err))
		return
	}
	s.written[bn/8] |= 1 << (bn % 8)
	if _, err := s.f.WriteAt(s.written[bn/8:bn/8+1], s.bitmapOff()+int64(bn/8)); err != nil {
		s.setErr(fmt.Errorf("disk: writing store bitmap: %w", err))
	}
}

func (s *FileStore) setErr(err error) {
	if s.werr == nil {
		s.werr = err
	}
}

// Sync persists the bitmap and a header with the given cumulative op
// counters, clean unless the store is held dirty, then fsyncs the backing
// file. It returns the first host write
// error seen since the previous Sync, if any.
func (s *FileStore) Sync(reads, writes, syncs uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.WriteAt(s.written, s.bitmapOff()); err != nil {
		s.setErr(fmt.Errorf("disk: writing store bitmap: %w", err))
	}
	s.clean = !s.held
	if err := s.writeHeader(reads, writes, syncs, true); err != nil {
		s.setErr(err)
		s.clean = false
	}
	err := s.werr
	s.werr = nil
	return err
}

// Close releases the backing file without an implicit Sync: the caller
// decides whether the store closes clean.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("disk: closing store: %w", err)
	}
	return nil
}
