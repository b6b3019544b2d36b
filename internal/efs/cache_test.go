package efs

import (
	"bytes"
	"math/rand"
	"testing"
)

// refCache is the reference model the block cache is held to: a slice in
// recency order, most recent first, searched linearly, copying every buffer
// in and out.
type refCache struct {
	cap  int
	ents []refEntry
}

type refEntry struct {
	addr int32
	data []byte
}

// refKey is the location key a block image teaches, if it is a used data
// block.
func refKey(data []byte) (fileKey, bool) {
	h := decodeHeader(data)
	if h.Flags&flagUsed == 0 || h.Flags&flagDirOverflow != 0 {
		return fileKey{}, false
	}
	return fileKey{fileID: h.FileID, blockNum: h.BlockNum}, true
}

// take removes and returns the entry at addr.
func (r *refCache) take(addr int32) (refEntry, bool) {
	for i, e := range r.ents {
		if e.addr == addr {
			r.ents = append(r.ents[:i:i], r.ents[i+1:]...)
			return e, true
		}
	}
	return refEntry{}, false
}

func (r *refCache) get(addr int32) ([]byte, bool) {
	e, ok := r.take(addr)
	if !ok {
		return nil, false
	}
	r.ents = append([]refEntry{e}, r.ents...)
	return append([]byte(nil), e.data...), true
}

func (r *refCache) put(addr int32, data []byte) (evicted fileKey, hasEvicted bool, learned fileKey, hasLearned bool) {
	learned, hasLearned = refKey(data)
	if old, ok := r.take(addr); ok {
		if k, had := refKey(old.data); had && (!hasLearned || k != learned) {
			evicted, hasEvicted = k, true
		}
	} else if len(r.ents) == r.cap {
		evicted, hasEvicted = refKey(r.ents[len(r.ents)-1].data)
		r.ents = r.ents[:len(r.ents)-1]
	}
	r.ents = append([]refEntry{{addr, append([]byte(nil), data...)}}, r.ents...)
	return evicted, hasEvicted, learned, hasLearned
}

func (r *refCache) invalidate(addr int32) (fileKey, bool) {
	e, ok := r.take(addr)
	if !ok {
		return fileKey{}, false
	}
	return refKey(e.data)
}

// randomBlock builds a block image whose header draws from a small identity
// space, so re-puts that change a block's identity (freed, reallocated,
// turned into directory overflow) are common.
func randomBlock(rng *rand.Rand) []byte {
	buf := make([]byte, BlockSize)
	rng.Read(buf[HeaderBytes:])
	flags := []uint16{0, flagUsed, flagUsed, flagUsed, flagUsed | flagDirOverflow}[rng.Intn(5)]
	encodeHeader(buf, blockHeader{FileID: uint32(rng.Intn(3)), BlockNum: uint32(rng.Intn(4)), Flags: flags})
	return buf
}

// TestBlockCacheMatchesReferenceModel drives the index-linked cache and the
// model with the same seeded put/get/invalidate stream: same hits, same
// bytes, same evicted and learned keys at every step. Along the way the
// caller scribbles over every buffer it passed to put, which must never
// reach cached bytes, and the images get lends out come from at most cap
// buffers: an evicted or invalidated slot keeps its buffer for the next
// block.
func TestBlockCacheMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const capacity, addrs, steps = 8, 20, 4000
		c, ref := newBlockCache(capacity), &refCache{cap: capacity}
		lent := map[*byte]bool{}
		for step := 0; step < steps; step++ {
			addr := int32(rng.Intn(addrs))
			switch op := rng.Intn(10); {
			case op < 5:
				buf := randomBlock(rng)
				we, wok, wl, wlok := ref.put(addr, buf)
				ge, gok, gl, glok := c.put(addr, buf)
				if ge != we || gok != wok || gl != wl || glok != wlok {
					t.Fatalf("seed %d step %d: put(%d) = evicted %v %v learned %v %v, model %v %v / %v %v",
						seed, step, addr, ge, gok, gl, glok, we, wok, wl, wlok)
				}
				rng.Read(buf) // the cache must hold a private copy
			case op < 9:
				want, wok := ref.get(addr)
				got, gok := c.get(addr)
				if gok != wok || !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: get(%d) hit %v, model %v; bytes equal %v", seed, step, addr, gok, wok, bytes.Equal(got, want))
				}
				if gok {
					lent[&got[0]] = true
				}
			default:
				wk, wok := ref.invalidate(addr)
				gk, gok := c.invalidate(addr)
				if gk != wk || gok != wok {
					t.Fatalf("seed %d step %d: invalidate(%d) = %v %v, model %v %v", seed, step, addr, gk, gok, wk, wok)
				}
			}
			if c.len() != len(ref.ents) {
				t.Fatalf("seed %d step %d: cache holds %d blocks, model %d", seed, step, c.len(), len(ref.ents))
			}
		}
		if len(lent) > capacity {
			t.Errorf("seed %d: get lent out %d distinct buffers, want at most %d", seed, len(lent), capacity)
		}
	}
}
