package core

import (
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// Server-side read-ahead for naive sequential readers. The per-block
// SeqRead interface pays one full round trip per block; with a stripe
// buffer the server instead fetches a whole window (ReadAhead stripes of p
// blocks) with one scatter-gather and, as soon as a window is served,
// starts prefetching the next one asynchronously — so by the time the
// reader's cursor arrives, the blocks are usually waiting. The cache lives
// entirely inside the single-threaded server process: entries are keyed by
// (client, file), mutations to a file drop its entries before any block is
// written, and abandoned prefetches are Discarded so their late replies
// cannot be observed. That makes the cache invisible to clients except in
// timing: no interleaving of readers and writers can serve stale bytes.

// raEntryCap bounds the number of (client, file) stripe buffers; old
// entries evict FIFO.
const raEntryCap = 64

// raKey identifies one sequential reader's buffer.
type raKey struct {
	client msg.Addr
	name   string
}

// raEntry is one reader's window plus its in-flight prefetch.
type raEntry struct {
	start  int64    // global block number of blocks[0]
	blocks [][]byte // contiguous run of payloads

	// pend holds the started (not yet awaited) vectored reads of the next
	// window, covering [pendStart, pendStart+pendCount).
	pend      []vecCall
	pendStart int64
	pendCount int
}

type raCache struct {
	stripes int // window size in stripes (of p blocks each)
	entries map[raKey]*raEntry
	order   []raKey // FIFO eviction; may hold keys already invalidated
	byName  map[string][]raKey
}

func newRACache(stripes int) *raCache {
	return &raCache{
		stripes: stripes,
		entries: make(map[raKey]*raEntry),
		byName:  make(map[string][]raKey),
	}
}

// window is the fetch size for a file: ReadAhead stripes of p blocks.
func (c *raCache) window(ent *dirent) int {
	w := c.stripes * ent.meta.Spec.P
	if w < 1 {
		w = 1
	}
	if w > maxBatchBlocks {
		w = maxBatchBlocks
	}
	return w
}

// read serves count blocks at pos for one sequential reader, from the
// buffer when possible, gathering a prefetch that covers pos, or falling
// back to a synchronous window fetch. Both bridge.ra_hits and
// bridge.ra_misses count blocks served: a hit was already buffered (or
// covered by an in-flight prefetch) when requested, a miss had to wait for
// a synchronous fetch — so hits/(hits+misses) is the cache hit rate.
// Callers guarantee pos+count is within the file.
func (c *raCache) read(p sim.Proc, s *Server, ent *dirent, client msg.Addr, pos int64, count int) ([][]byte, error) {
	key := raKey{client: client, name: ent.meta.Name}
	e, ok := c.entries[key]
	if !ok {
		e = c.insert(s, key)
	}
	out := make([][]byte, 0, count)
	for count > 0 {
		if off := pos - e.start; off >= 0 && off < int64(len(e.blocks)) {
			n := int64(len(e.blocks)) - off
			if int64(count) < n {
				n = int64(count)
			}
			out = append(out, e.blocks[off:off+n]...)
			s.m.raHits.Add(n)
			pos += n
			count -= int(n)
			continue
		}
		if e.pend != nil && pos >= e.pendStart && pos < e.pendStart+int64(e.pendCount) {
			if err := c.fill(p, s, ent, e); err != nil {
				// A failed prefetch falls through to a fresh synchronous
				// fetch, which gets its own retries.
				e.start, e.blocks = 0, nil
				continue
			}
			continue
		}
		// Miss: the reader is outside both windows (cold start, or the
		// cursor moved — e.g. a re-open). Abandon any prefetch and fetch
		// a window synchronously, then pipeline the next.
		c.dropPend(s, e)
		w := c.window(ent)
		if remain := ent.meta.Blocks - pos; int64(w) > remain {
			w = int(remain)
		}
		blocks, err := s.lfsReadN(p, ent, pos, w)
		if err != nil {
			return nil, err
		}
		e.start, e.blocks = pos, blocks
		c.prefetch(s, ent, e)
		// The blocks this request takes from the fresh window had to wait
		// for the fetch, so they count as misses (per block, matching the
		// ra_hits unit); the window's remainder serves later requests as
		// hits, which is the read-ahead payoff.
		n := int64(len(blocks))
		if int64(count) < n {
			n = int64(count)
		}
		out = append(out, blocks[:n]...)
		s.m.raMisses.Add(n)
		s.curSpan.Annotate("ra miss")
		pos += n
		count -= int(n)
	}
	return out, nil
}

// fill gathers the entry's in-flight prefetch into its window and starts
// the next prefetch. The pending set is consumed either way: on error the
// remaining replies are discarded by gatherReadVec.
func (c *raCache) fill(p sim.Proc, s *Server, ent *dirent, e *raEntry) error {
	calls, start, n := e.pend, e.pendStart, e.pendCount
	e.pend, e.pendStart, e.pendCount = nil, 0, 0
	blocks, err := s.gatherReadVec(p, ent, calls, start, n)
	if err != nil {
		return err
	}
	s.m.raFills.Add(1)
	e.start, e.blocks = start, blocks
	c.prefetch(s, ent, e)
	return nil
}

// prefetch starts (but does not await) a vectored read of the window after
// the entry's current one. Best-effort: a node that cannot even be started
// just leaves the prefetch off, and the demand path reports the error.
func (c *raCache) prefetch(s *Server, ent *dirent, e *raEntry) {
	next := e.start + int64(len(e.blocks))
	if next >= ent.meta.Blocks {
		return
	}
	w := c.window(ent)
	if remain := ent.meta.Blocks - next; int64(w) > remain {
		w = int(remain)
	}
	calls, err := s.startReadVec(ent, next, w)
	if err != nil {
		return
	}
	e.pend, e.pendStart, e.pendCount = calls, next, w
}

// dropPend abandons the entry's in-flight prefetch, discarding the
// correlation ids so late replies are dropped on receipt.
func (c *raCache) dropPend(s *Server, e *raEntry) {
	s.discardVec(e.pend)
	e.pend, e.pendStart, e.pendCount = nil, 0, 0
}

// insert adds an empty entry, evicting FIFO past the cap. Keys in order
// whose entries were invalidated are skipped lazily.
func (c *raCache) insert(s *Server, key raKey) *raEntry {
	for len(c.entries) >= raEntryCap && len(c.order) > 0 {
		old := c.order[0]
		c.order = c.order[1:]
		if e, ok := c.entries[old]; ok {
			c.dropPend(s, e)
			delete(c.entries, old)
			c.removeName(old)
		}
	}
	e := &raEntry{}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.byName[key.name] = append(c.byName[key.name], key)
	return e
}

func (c *raCache) removeName(key raKey) {
	keys := c.byName[key.name]
	for i, k := range keys {
		if k == key {
			c.byName[key.name] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(c.byName[key.name]) == 0 {
		delete(c.byName, key.name)
	}
}

// invalidate drops every reader's buffer for a file. Called before any
// mutation of the file's data or removal of the file, so a buffer can
// never outlive the bytes it caches.
func (c *raCache) invalidate(s *Server, name string) {
	keys := c.byName[name]
	if len(keys) == 0 {
		return
	}
	for _, key := range keys {
		if e, ok := c.entries[key]; ok {
			c.dropPend(s, e)
			delete(c.entries, key)
		}
	}
	delete(c.byName, name)
	s.m.raInvalidations.Add(1)
}

// invalidateAll empties the cache — used after node repair, when any
// buffered block might predate the crash.
func (c *raCache) invalidateAll(s *Server) {
	for _, key := range c.order {
		if e, ok := c.entries[key]; ok {
			c.dropPend(s, e)
			delete(c.entries, key)
		}
	}
	c.order = c.order[:0]
	c.byName = make(map[string][]raKey)
}

// raInvalidate drops read-ahead state for a file, if the cache is on.
func (s *Server) raInvalidate(name string) {
	if s.ra != nil {
		s.ra.invalidate(s, name)
	}
}
