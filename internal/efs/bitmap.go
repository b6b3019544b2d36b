package efs

// bitmap tracks block allocation in memory; it is persisted to the reserved
// bitmap region on Sync. Bit set = block in use.
type bitmap struct {
	words []uint64
	n     int
	used  int
}

func newBitmap(n int) *bitmap {
	return &bitmap{words: make([]uint64, (n+63)/64), n: n}
}

func (b *bitmap) isSet(i int) bool {
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (b *bitmap) set(i int) {
	if !b.isSet(i) {
		b.words[i/64] |= 1 << (uint(i) % 64)
		b.used++
	}
}

func (b *bitmap) clear(i int) {
	if b.isSet(i) {
		b.words[i/64] &^= 1 << (uint(i) % 64)
		b.used--
	}
}

// alloc finds a free block, preferring the first free block at or after
// near (for track locality on sequential appends), wrapping to lo..n if the
// tail is full. lo bounds the data region so metadata blocks are never
// handed out. Returns -1 if the volume is full.
func (b *bitmap) alloc(near, lo int) int {
	if near < lo || near >= b.n {
		near = lo
	}
	if i := b.scan(near, b.n); i >= 0 {
		b.set(i)
		return i
	}
	if i := b.scan(lo, near); i >= 0 {
		b.set(i)
		return i
	}
	return -1
}

// scan returns the first clear bit in [from, to), or -1.
func (b *bitmap) scan(from, to int) int {
	for i := from; i < to; {
		w := b.words[i/64]
		if w == ^uint64(0) {
			i = (i/64 + 1) * 64
			continue
		}
		if !b.isSet(i) {
			return i
		}
		i++
	}
	return -1
}

// free returns the number of unallocated blocks.
func (b *bitmap) free() int { return b.n - b.used }

// encodeBlock serializes the words of bitmap block bi into dst, a
// block-sized buffer, zeroing the rest of it; the caller stamps the
// checksum tail.
func (b *bitmap) encodeBlock(dst []byte, bi int) {
	for w := 0; w < bitmapWordsPerBlock; w++ {
		var v uint64
		if idx := bi*bitmapWordsPerBlock + w; idx < len(b.words) {
			v = b.words[idx]
		}
		putUint64(dst[w*8:], v)
	}
	clear(dst[bitmapWordsPerBlock*8:])
}

// decodeFrom fills bitmap words from block-sized buffers and recomputes the
// used count.
func (b *bitmap) decodeFrom(blocks [][]byte) {
	wordsPerBlock := bitmapWordsPerBlock
	for bi, blk := range blocks {
		for w := 0; w < wordsPerBlock; w++ {
			idx := bi*wordsPerBlock + w
			if idx >= len(b.words) {
				break
			}
			b.words[idx] = getUint64(blk[w*8:])
		}
	}
	b.used = 0
	for i := 0; i < b.n; i++ {
		if b.isSet(i) {
			b.used++
		}
	}
}

func putUint64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (8 * uint(i)))
	}
}

func getUint64(src []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(src[i]) << (8 * uint(i))
	}
	return v
}
