package efs

// blockCache is the LRU cache of recently-accessed blocks the paper
// describes: "a cache of recently-accessed blocks makes sequential access
// more efficient by keeping neighboring blocks (and their pointers) in
// memory". Whole tracks are inserted on read misses (full-track buffering).
//
// The cache also feeds the block-location map: whenever a used data block
// enters the cache, its (file, block-number) → disk-address mapping is
// learned, so later lookups can skip the linked-list walk.
//
// Entries live in one slice and link to each other by index, so an insert
// allocates no list node. Each slot owns one block buffer, allocated on the
// slot's first use and kept for life: an evicted or invalidated slot's
// buffer takes the next block that lands there, so a cache holds at most cap
// buffers and a warm one allocates none. put copies an image in; get hands
// the slot's buffer out read-only, valid until the next call on the cache.
type blockCache struct {
	cap     int
	entries []cacheEntry
	m       map[int32]int32 // disk address → index into entries
	head    int32           // most recently used, noEntry when empty
	tail    int32           // least recently used
	free    int32           // invalidated slots, chained through next
}

const noEntry int32 = -1

type cacheEntry struct {
	addr       int32
	prev, next int32
	data       []byte // owned by the slot, BlockSize bytes; lent out read-only by get
	key        fileKey
	hasKey     bool
}

type fileKey struct {
	fileID   uint32
	blockNum uint32
}

func newBlockCache(capacity int) *blockCache {
	if capacity < 1 {
		capacity = 1
	}
	return &blockCache{cap: capacity, m: make(map[int32]int32), head: noEntry, tail: noEntry, free: noEntry}
}

// get returns the cached image of addr, if present, and makes it the most
// recently used. The image is the cache's own buffer: the caller must not
// change it, and it is valid only until the next call on the cache.
func (c *blockCache) get(addr int32) ([]byte, bool) {
	i, ok := c.m[addr]
	if !ok {
		return nil, false
	}
	c.unlink(i)
	c.pushFront(i)
	return c.entries[i].data, true
}

// peek is get without the recency update.
func (c *blockCache) peek(addr int32) ([]byte, bool) {
	i, ok := c.m[addr]
	if !ok {
		return nil, false
	}
	return c.entries[i].data, true
}

// put copies data in as the image of addr, returning the location key of
// any evicted used block so the owner can drop its location-map entry, plus
// the location key learned from the inserted block (if it is a used data
// block). The caller keeps data.
func (c *blockCache) put(addr int32, data []byte) (evicted fileKey, hasEvicted bool, learned fileKey, hasLearned bool) {
	h := decodeHeader(data)
	var key fileKey
	hasKey := h.Flags&flagUsed != 0 && h.Flags&flagDirOverflow == 0
	if hasKey {
		key = fileKey{fileID: h.FileID, blockNum: h.BlockNum}
		learned, hasLearned = key, true
	}
	i, ok := c.m[addr]
	if ok {
		// The block may have changed identity (freed, reallocated).
		if e := &c.entries[i]; e.hasKey && (!hasKey || e.key != key) {
			evicted, hasEvicted = e.key, true
		}
		c.unlink(i)
	} else {
		switch {
		case c.free != noEntry:
			i = c.free
			c.free = c.entries[i].next
		case len(c.entries) < c.cap:
			c.entries = append(c.entries, cacheEntry{})
			i = int32(len(c.entries) - 1)
		default:
			i = c.tail
			e := &c.entries[i]
			if e.hasKey {
				evicted, hasEvicted = e.key, true
			}
			c.unlink(i)
			delete(c.m, e.addr)
		}
		c.m[addr] = i
	}
	e := &c.entries[i]
	e.addr, e.key, e.hasKey = addr, key, hasKey
	if len(e.data) != len(data) {
		e.data = make([]byte, len(data))
	}
	copy(e.data, data)
	c.pushFront(i)
	return evicted, hasEvicted, learned, hasLearned
}

// invalidate drops a block, returning its location key if it had one.
func (c *blockCache) invalidate(addr int32) (fileKey, bool) {
	i, ok := c.m[addr]
	if !ok {
		return fileKey{}, false
	}
	c.unlink(i)
	delete(c.m, addr)
	e := &c.entries[i]
	e.next, c.free = c.free, i
	return e.key, e.hasKey
}

// len returns the number of cached blocks.
func (c *blockCache) len() int { return len(c.m) }

// unlink takes entry i out of the recency list.
func (c *blockCache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev != noEntry {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != noEntry {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront makes the unlinked entry i the most recently used.
func (c *blockCache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev, e.next = noEntry, c.head
	if c.head != noEntry {
		c.entries[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}
