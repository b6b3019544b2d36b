package efs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// On-disk layout, all little-endian:
//
//	block 0:                superblock
//	blocks 1..D:            directory hash buckets
//	blocks D+1..D+B:        free-space bitmap
//	blocks D+B+1..:         data blocks (and directory overflow buckets)
//
// Every data block carries the 24-byte EFS header the paper describes
// (file number, block number, next/prev links); the remaining 1000 bytes
// are the data area. The Bridge layer takes 40 of those bytes for its own
// header, leaving 960 bytes of payload per block, exactly as in the paper.

// Geometry and header sizes.
const (
	BlockSize      = 1024
	HeaderBytes    = 24
	DataBytes      = BlockSize - HeaderBytes // 1000
	dirEntryBytes  = 16
	dirBlockHeader = 8
	// dirEntriesMax leaves the last 8 bytes of a bucket block free: 63
	// entries end at byte 1016, and the block checksum sits at 1020.
	dirEntriesMax = (BlockSize - dirBlockHeader - 8) / dirEntryBytes // 63
	// Bitmap blocks reserve their tail for the checksum too: 127 words of
	// allocation bits per block.
	bitmapWordsPerBlock = (BlockSize - 8) / 8 // 127
	bitsPerBitmapBlock  = bitmapWordsPerBlock * 64
)

// nilAddr marks an absent block pointer.
const nilAddr int32 = -1

var superMagic = [8]byte{'E', 'F', 'S', 'B', 'R', 'D', 'G', '1'}

// superVersion 2 added per-block checksums (data-block header bytes 20..23,
// metadata-block tails); version-1 images lack them and will not mount.
const superVersion = 2

// Errors returned by EFS operations.
var (
	ErrExists      = errors.New("efs: file exists")
	ErrNotFound    = errors.New("efs: file not found")
	ErrNoSpace     = errors.New("efs: no space on device")
	ErrBadBlockNum = errors.New("efs: block number out of range for file")
	ErrNotAppend   = errors.New("efs: write beyond end of file")
	ErrCorrupt     = errors.New("efs: corrupt volume")
	ErrTooLarge    = errors.New("efs: data larger than block data area")

	// ErrUnformatted is the corruption Mount reports when the device holds
	// no superblock and no journal record restores one. Format writes the
	// superblock last, after a barrier, and nothing rewrites it in place,
	// so that is what a device whose format never finished looks like —
	// and also a device whose block 0 was destroyed. Either way nothing on
	// it can be mounted; formatting it again is the caller's call.
	ErrUnformatted = fmt.Errorf("%w: no superblock (format never finished)", ErrCorrupt)
)

// Block header flags.
const (
	flagUsed uint16 = 1 << iota
	flagDirOverflow
)

// blockHeader is the 24-byte per-block EFS header.
type blockHeader struct {
	FileID   uint32
	BlockNum uint32
	Next     int32
	Prev     int32
	DataLen  uint16
	Flags    uint16
}

func encodeHeader(dst []byte, h blockHeader) {
	binary.LittleEndian.PutUint32(dst[0:], h.FileID)
	binary.LittleEndian.PutUint32(dst[4:], h.BlockNum)
	binary.LittleEndian.PutUint32(dst[8:], uint32(h.Next))
	binary.LittleEndian.PutUint32(dst[12:], uint32(h.Prev))
	binary.LittleEndian.PutUint16(dst[16:], h.DataLen)
	binary.LittleEndian.PutUint16(dst[18:], h.Flags)
	// bytes 20..23 hold the block checksum, stamped by writeThrough once
	// the whole image (header plus data area) is final.
	dst[20], dst[21], dst[22], dst[23] = 0, 0, 0, 0
}

// encodeData builds a whole data block image in dst: header h, then the
// data area — head, then data — zero-padded to the end of the block.
func encodeData(dst []byte, h blockHeader, head, data []byte) {
	encodeHeader(dst, h)
	n := HeaderBytes + copy(dst[HeaderBytes:], head)
	clear(dst[n+copy(dst[n:], data):])
}

func decodeHeader(src []byte) blockHeader {
	return blockHeader{
		FileID:   binary.LittleEndian.Uint32(src[0:]),
		BlockNum: binary.LittleEndian.Uint32(src[4:]),
		Next:     int32(binary.LittleEndian.Uint32(src[8:])),
		Prev:     int32(binary.LittleEndian.Uint32(src[12:])),
		DataLen:  binary.LittleEndian.Uint16(src[16:]),
		Flags:    binary.LittleEndian.Uint16(src[18:]),
	}
}

// superblock is the volume header in block 0.
type superblock struct {
	NumBlocks    uint32
	DirBuckets   uint32
	BitmapBlocks uint32
	DataStart    uint32
	NextFileID   uint32 // allocator hint for locally-created scratch files
	// JournalBlocks is the size of the write-ahead intent journal region
	// reserved at the end of the device (entry blocks plus one header
	// block); 0 on unjournaled volumes. Stored after the checksum field so
	// pre-journal images decode it as zero — no version bump needed.
	JournalBlocks uint32
}

func encodeSuper(dst []byte, s superblock) {
	copy(dst, superMagic[:])
	binary.LittleEndian.PutUint32(dst[8:], superVersion)
	binary.LittleEndian.PutUint32(dst[12:], s.NumBlocks)
	binary.LittleEndian.PutUint32(dst[16:], s.DirBuckets)
	binary.LittleEndian.PutUint32(dst[20:], s.BitmapBlocks)
	binary.LittleEndian.PutUint32(dst[24:], s.DataStart)
	binary.LittleEndian.PutUint32(dst[28:], s.NextFileID)
	// bytes 32..35 hold the superblock checksum (superSumOff).
	binary.LittleEndian.PutUint32(dst[36:], s.JournalBlocks)
}

func decodeSuper(src []byte) (superblock, error) {
	var magic [8]byte
	copy(magic[:], src)
	if magic != superMagic {
		return superblock{}, fmt.Errorf("%w: bad superblock magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(src[8:]); v != superVersion {
		return superblock{}, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	return superblock{
		NumBlocks:     binary.LittleEndian.Uint32(src[12:]),
		DirBuckets:    binary.LittleEndian.Uint32(src[16:]),
		BitmapBlocks:  binary.LittleEndian.Uint32(src[20:]),
		DataStart:     binary.LittleEndian.Uint32(src[24:]),
		NextFileID:    binary.LittleEndian.Uint32(src[28:]),
		JournalBlocks: binary.LittleEndian.Uint32(src[36:]),
	}, nil
}

// dirEntry is one directory slot: file id, chain endpoints, length.
type dirEntry struct {
	FileID uint32
	First  int32
	Last   int32
	Blocks int32
}

// dirBucket is the in-memory form of a directory bucket block.
type dirBucket struct {
	Overflow int32 // next overflow bucket block, nilAddr if none
	Entries  []dirEntry
}

func encodeBucket(dst []byte, b dirBucket) {
	binary.LittleEndian.PutUint16(dst[0:], uint16(len(b.Entries)))
	binary.LittleEndian.PutUint32(dst[2:], uint32(b.Overflow))
	// bytes 6..7 reserved
	dst[6], dst[7] = 0, 0
	off := dirBlockHeader
	for _, e := range b.Entries {
		binary.LittleEndian.PutUint32(dst[off:], e.FileID)
		binary.LittleEndian.PutUint32(dst[off+4:], uint32(e.First))
		binary.LittleEndian.PutUint32(dst[off+8:], uint32(e.Last))
		binary.LittleEndian.PutUint32(dst[off+12:], uint32(e.Blocks))
		off += dirEntryBytes
	}
	for ; off < BlockSize; off++ {
		dst[off] = 0
	}
}

func decodeBucket(src []byte) (dirBucket, error) {
	n := int(binary.LittleEndian.Uint16(src[0:]))
	if n > dirEntriesMax {
		return dirBucket{}, fmt.Errorf("%w: bucket entry count %d", ErrCorrupt, n)
	}
	b := dirBucket{
		Overflow: int32(binary.LittleEndian.Uint32(src[2:])),
		Entries:  make([]dirEntry, n),
	}
	off := dirBlockHeader
	for i := range b.Entries {
		b.Entries[i] = dirEntry{
			FileID: binary.LittleEndian.Uint32(src[off:]),
			First:  int32(binary.LittleEndian.Uint32(src[off+4:])),
			Last:   int32(binary.LittleEndian.Uint32(src[off+8:])),
			Blocks: int32(binary.LittleEndian.Uint32(src[off+12:])),
		}
		off += dirEntryBytes
	}
	return b, nil
}

// bucketFor hashes a file id to its home bucket index. File names in EFS
// "are numbers that are used to hash into a directory".
func bucketFor(fileID uint32, buckets int) int {
	// Fibonacci hashing spreads sequential ids across buckets.
	return int((uint64(fileID) * 11400714819323198485) % uint64(buckets))
}
