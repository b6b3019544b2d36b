package efs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Every on-disk block carries a CRC-32C over its own disk address plus its
// entire content (with the stored checksum field zeroed). Seeding the
// checksum with the address means a block that reads back internally
// consistent but at the wrong location — a misdirected write — fails
// verification just like bit rot does: the sum is over (where the block
// claims to live, what it says), and for data blocks the header already
// binds (fileID, blockNo) into the covered bytes.
//
// Checksum placement by block type:
//
//	data blocks:       header bytes 20..23 (previously reserved)
//	superblock:        bytes 32..35
//	directory buckets: bytes 1020..1023 (the entry area ends at 1016)
//	bitmap blocks:     bytes 1020..1023 (each block holds 127 words of bits)
//
// All writes stamp the checksum; all reads verify it and surface a mismatch
// as ErrCorrupt, which transports as lfs.CodeCorrupt end to end.

// Checksum field offsets.
const (
	dataSumOff   = 20            // inside the 24-byte block header
	superSumOff  = 32            // after the superblock fields
	bucketSumOff = BlockSize - 4 // tail of a directory bucket block
	bitmapSumOff = BlockSize - 4 // tail of a bitmap block
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockSum computes the checksum of a full block image at disk address
// addr, treating the 4 bytes at sumOff as zero.
func blockSum(addr int32, buf []byte, sumOff int) uint32 {
	sum := sumWord(0, uint32(addr))
	sum = crc32.Update(sum, crcTable, buf[:sumOff])
	sum = sumWord(sum, 0)
	return crc32.Update(sum, crcTable, buf[sumOff+4:])
}

// sumWord is crc32.Update(sum, crcTable, w) for the four little-endian
// bytes w of v. A slice handed to crc32.Update escapes, so a stack array
// there costs one heap object per word per checksum; four table steps don't.
func sumWord(sum, v uint32) uint32 {
	sum = ^sum
	for i := 0; i < 4; i++ {
		sum = crcTable[byte(sum)^byte(v)] ^ sum>>8
		v >>= 8
	}
	return ^sum
}

// seal stamps the checksum into a block image about to be written at addr.
func seal(addr int32, buf []byte, sumOff int) {
	binary.LittleEndian.PutUint32(buf[sumOff:], blockSum(addr, buf, sumOff))
}

// sumOK verifies a block image read from addr against its stored checksum.
func sumOK(addr int32, buf []byte, sumOff int) bool {
	return binary.LittleEndian.Uint32(buf[sumOff:]) == blockSum(addr, buf, sumOff)
}

// verifyData checks a data-region block image against its header checksum.
func verifyData(addr int32, raw []byte) error {
	if !sumOK(addr, raw, dataSumOff) {
		return fmt.Errorf("%w: checksum mismatch at block %d", ErrCorrupt, addr)
	}
	return nil
}

// verifyBucket checks a directory bucket block image against its tail
// checksum.
func verifyBucket(addr int32, raw []byte) error {
	if !sumOK(addr, raw, bucketSumOff) {
		return fmt.Errorf("%w: checksum mismatch in directory bucket at block %d", ErrCorrupt, addr)
	}
	return nil
}
