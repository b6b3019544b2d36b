package core

import (
	"slices"

	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Server-side read-ahead for naive sequential readers. The per-block
// SeqRead interface pays one full round trip per block; with a stripe
// buffer the server instead fetches a whole window (ReadAhead stripes of p
// blocks) with one scatter-gather and keeps the next raDepth windows in
// flight — so by the time the reader's cursor arrives, the blocks are
// usually waiting. A request starts only the windows its own blocks run
// into; the top-up for the next request is started after the reply has gone
// out (raAhead, from the request loop). The cache lives entirely inside the
// single-threaded server process: entries are keyed by (client, file),
// mutations to a file drop its entries before any block is written, and
// abandoned prefetches are Discarded so their late replies cannot be
// observed. That makes the cache invisible to clients except in timing: no
// interleaving of readers and writers can serve stale bytes.

// raEntryCap bounds the number of (client, file) stripe buffers; old
// entries evict FIFO. With raDepth it bounds the cache's memory: at most
// raEntryCap × (1 + raDepth) windows of at most maxBatchBlocks blocks.
const raEntryCap = 64

// raDepth is how many windows a reader keeps in flight past the one it is
// served from. One is too few: a request's worth of server work (≈15–17 ms
// on stream_read) is shorter than an LFS round trip with a 15 ms track read,
// so a window started one request ahead is still in flight when the reader
// gets there. At two the last node's reply to a track-read window still
// lands a fraction of a millisecond after its gather begins; three is the
// least depth at which no fill waits (TestReadAheadStaysAhead). stream_read
// (ReadN(32), 32-block windows over 8 nodes) by depth, sim ms/op and slowest
// op: 1 → 0.654, 30.0; 2 → 0.484, 30.9; 3 → 0.467 (the server's messaging
// floor), 31.7; 4 → 0.467, 38.1 — deeper windows only queue on the disks,
// and the slowest op waits behind them.
const raDepth = 3

// raKey identifies one sequential reader's buffer.
type raKey struct {
	client msg.Addr
	name   string
}

// raWindow is a started, not yet gathered, vectored read of count blocks
// from start.
type raWindow struct {
	calls []vecCall
	start int64
	count int
}

// raEntry is one reader's window plus the windows in flight after it.
type raEntry struct {
	start  int64    // global block number of blocks[0]
	blocks [][]byte // contiguous run of payloads
	// pend[:npend] are the windows in flight, in file order; next is the
	// first block neither buffered nor in flight.
	pend  [raDepth]raWindow
	npend int
	next  int64
}

type raCache struct {
	stripes int // window size in stripes (of p blocks each)
	entries map[raKey]*raEntry
	order   []raKey // FIFO eviction order of the live entries
	byName  map[string][]raKey
	// due is the reader the request being served left short of raDepth
	// windows in flight, for raAhead to top up; nil when there is none.
	due    *raEntry
	dueEnt *dirent
}

func newRACache(stripes int) *raCache {
	return &raCache{
		stripes: stripes,
		entries: make(map[raKey]*raEntry),
		byName:  make(map[string][]raKey),
	}
}

// window is the fetch size at pos: ReadAhead stripes of p blocks, clipped
// to the file's end.
func (c *raCache) window(ent *dirent, pos int64) int {
	w := max(1, min(c.stripes*ent.meta.Spec.P, maxBatchBlocks))
	if remain := ent.meta.Blocks - pos; int64(w) > remain {
		w = int(remain)
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
	end := pos + int64(count)
	out := make([][]byte, 0, count)
	for pos < end {
		if off := pos - e.start; off >= 0 && off < int64(len(e.blocks)) {
			n := min(int64(len(e.blocks))-off, end-pos)
			out = append(out, e.blocks[off:off+n]...)
			s.m.raHits.Add(n)
			pos += n
			continue
		}
		if w := e.pend[0]; e.npend > 0 && pos >= w.start && pos < w.start+int64(w.count) {
			c.fill(p, s, ent, e, end)
			continue
		}
		// Miss: the reader is outside every window (cold start, the cursor
		// moved — e.g. a re-open — or a prefetch failed). Abandon the
		// windows in flight and fetch one synchronously, with its own
		// retries.
		c.drop(s, e)
		w := c.window(ent, pos)
		blocks, err := s.lfsReadN(p, ent, pos, w)
		if err != nil {
			return nil, err
		}
		e.start, e.blocks, e.next = pos, blocks, pos+int64(w)
		if end > e.next {
			c.prefetch(s, ent, e)
		}
		// The blocks this request takes from the fresh window had to wait
		// for the fetch, so they count as misses (per block, matching the
		// ra_hits unit); the window's remainder serves later requests as
		// hits, which is the read-ahead payoff.
		n := min(int64(w), end-pos)
		out = append(out, blocks[:n]...)
		s.m.raMisses.Add(n)
		s.curSpan.Annotate("ra miss")
		pos += n
	}
	if e.npend < raDepth && e.next < ent.meta.Blocks {
		c.due, c.dueEnt = e, ent
	}
	return out, nil
}

// fill gathers the entry's first window in flight into its buffer. When the
// request's blocks run past that window (to end) and nothing after it is in
// flight, the next window is started before the gather, so a batch larger
// than a window still overlaps each fetch with the one before. A failed
// gather discards the window's remaining replies and leaves the buffer as it
// was, so the read misses at the failed window's blocks.
func (c *raCache) fill(p sim.Proc, s *Server, ent *dirent, e *raEntry, end int64) {
	w := e.pend[0]
	copy(e.pend[:], e.pend[1:e.npend])
	e.npend--
	e.pend[e.npend] = raWindow{}
	if e.npend == 0 && end > w.start+int64(w.count) {
		c.prefetch(s, ent, e)
	}
	blocks, err := s.gatherReadVec(p, ent, w.calls, w.start, w.count)
	if err != nil {
		return
	}
	s.m.raFills.Add(1)
	e.start, e.blocks = w.start, blocks
}

// prefetch starts (but does not await) a vectored read of the window at the
// entry's next block and reports whether it did. Best-effort: at the end of
// the file, with raDepth windows already in flight, or on a node that cannot
// even be started it leaves the prefetch off, and the demand path reports
// any error.
func (c *raCache) prefetch(s *Server, ent *dirent, e *raEntry) bool {
	if e.npend == raDepth || e.next >= ent.meta.Blocks {
		return false
	}
	w := c.window(ent, e.next)
	calls, err := s.startReadVec(ent, e.next, w)
	if err != nil {
		return false
	}
	e.pend[e.npend] = raWindow{calls: calls, start: e.next, count: w}
	e.npend++
	e.next += int64(w)
	return true
}

// drop abandons every window the entry has in flight, discarding their
// correlation ids so late replies are dropped on receipt.
func (c *raCache) drop(s *Server, e *raEntry) {
	for i := range e.pend[:e.npend] {
		s.discardVec(e.pend[i].calls)
		e.pend[i] = raWindow{}
	}
	e.npend = 0
}

// raAhead is the request loop's post-reply step: it tops the reader the last
// request served up to raDepth windows in flight. The sends go out after the
// reply, so they no longer sit between the client and its answer, and each
// window is started raDepth requests before it is needed. The step is traced
// as server.prefetch, a child of the request (parent) that queued it.
func (s *Server) raAhead(p sim.Proc, trace obs.TraceID, parent obs.SpanID) {
	if s.ra == nil || s.ra.due == nil {
		return
	}
	e, ent := s.ra.due, s.ra.dueEnt
	s.ra.due, s.ra.dueEnt = nil, nil
	rec := s.net.Recorder()
	var sp obs.SpanRef
	if rec != nil {
		sp = rec.Start(p.Now(), trace, parent, "server.prefetch", int(s.cfg.Node))
		s.lc.C.SetTrace(trace, sp.ID())
	}
	for s.ra.prefetch(s, ent, e) {
	}
	if rec != nil {
		sp.End(p.Now(), nil)
		s.lc.C.SetTrace(0, 0)
	}
}

// insert adds an empty entry, evicting the oldest past the cap.
func (c *raCache) insert(s *Server, key raKey) *raEntry {
	for len(c.entries) >= raEntryCap {
		c.remove(s, c.order[0])
	}
	e := &raEntry{}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.byName[key.name] = append(c.byName[key.name], key)
	return e
}

// remove forgets one reader's entry, abandoning its windows in flight.
func (c *raCache) remove(s *Server, key raKey) {
	e := c.entries[key]
	c.drop(s, e)
	if c.due == e {
		c.due, c.dueEnt = nil, nil
	}
	delete(c.entries, key)
	c.order = slices.DeleteFunc(c.order, func(k raKey) bool { return k == key })
	if keys := slices.DeleteFunc(c.byName[key.name], func(k raKey) bool { return k == key }); len(keys) > 0 {
		c.byName[key.name] = keys
	} else {
		delete(c.byName, key.name)
	}
}

// invalidate drops every reader's buffer for a file. Called before any
// mutation of the file's data or removal of the file, so a buffer can
// never outlive the bytes it caches.
func (c *raCache) invalidate(s *Server, name string) {
	if len(c.byName[name]) == 0 {
		return
	}
	for len(c.byName[name]) > 0 {
		c.remove(s, c.byName[name][0])
	}
	s.m.raInvalidations.Add(1)
}

// invalidateAll empties the cache — used after node repair, when any
// buffered block might predate the crash.
func (c *raCache) invalidateAll(s *Server) {
	for len(c.order) > 0 {
		c.remove(s, c.order[0])
	}
}

// raInvalidate drops read-ahead state for a file, if the cache is on.
func (s *Server) raInvalidate(name string) {
	if s.ra != nil {
		s.ra.invalidate(s, name)
	}
}
