package core

import (
	"slices"

	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Server-side read-ahead for naive sequential readers (DESIGN.md "Windowed
// streams"). Instead of one round trip per block, the server fetches a whole
// window (ReadAhead stripes of p blocks) with one scatter-gather and keeps
// the next raDepth windows in flight on the reader's stream. A request starts
// only the windows its own blocks run into; raAhead, after the reply, tops
// the reader up. Entries are keyed by (client, file), and a mutation drops a
// file's entries — their windows in flight discarded — before any block is
// written, so no interleaving of readers and writers can serve stale bytes.

// raEntryCap bounds the (client, file) buffers, evicted FIFO, and so memory:
// at most raEntryCap × (1 + raDepth) windows of at most maxBatchBlocks blocks.
const raEntryCap = 64

// raDepth is how many windows a reader keeps in flight past the one it is
// served from. A request's server work (≈15–17 ms on stream_read) is shorter
// than an LFS round trip with a 15 ms track read; three is the least depth at
// which no fill waits (TestReadAheadStaysAhead). stream_read (ReadN(32),
// 32-block windows over 8 nodes) by depth, sim ms/op and slowest op: 1 →
// 0.654, 30.0; 2 → 0.484, 30.9; 3 → 0.467 (the messaging floor), 31.7; 4 →
// 0.467, 38.1 — deeper windows only queue on the disks.
const raDepth = 3

// raKey identifies one sequential reader's buffer.
type raKey struct {
	client msg.Addr
	name   string
}

// raEntry is one reader's window plus the windows in flight after it.
type raEntry struct {
	start  int64     // global block number of blocks[0]
	blocks [][]byte  // contiguous run of payloads
	st     vecStream // the windows in flight, in file order
	next   int64     // the first block neither buffered nor in flight
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
func (c *raCache) read(s *Server, ent *dirent, client msg.Addr, pos int64, count int) ([][]byte, error) {
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
		if e.st.Windows() > 0 {
			if at, n := e.st.Window(0); pos >= at && pos < at+int64(n) {
				c.fill(s, ent, e, end)
				continue
			}
		}
		// Miss (cold start, a rewind, a failed prefetch): drop the windows
		// in flight and fetch one synchronously, with its own retries.
		e.st.Drop()
		w := c.window(ent, pos)
		blocks, err := s.lfsReadN(ent, pos, w)
		if err != nil {
			return nil, err
		}
		e.start, e.blocks, e.next = pos, blocks, pos+int64(w)
		if end > e.next {
			c.prefetch(s, ent, e)
		}
		// The blocks taken from the fresh window waited for it: misses, per
		// block; its remainder serves later requests as hits.
		n := min(int64(w), end-pos)
		out = append(out, blocks[:n]...)
		s.m.raMisses.Add(n)
		s.curSpan.Annotate("ra miss")
		pos += n
	}
	if e.st.Windows() < raDepth && e.next < ent.meta.Blocks {
		c.due, c.dueEnt = e, ent
	}
	return out, nil
}

// fill takes the entry's oldest window into its buffer. When the request runs
// past it (to end) and nothing after it is in flight, the next is started
// first, so a batch larger than a window overlaps each fetch with the one
// before. A failed take leaves the buffer as it was: the read misses there.
func (c *raCache) fill(s *Server, ent *dirent, e *raEntry, end int64) {
	at, n := e.st.Window(0)
	if e.st.Windows() == 1 && end > at+int64(n) {
		c.prefetch(s, ent, e)
	}
	blocks, err := s.takeRead(&e.st, ent)
	if err != nil {
		return
	}
	s.m.raFills.Add(1)
	e.start, e.blocks = at, blocks
}

// prefetch opens the window at the entry's next block and reports whether it
// did: not at the end of the file, at raDepth windows in flight, or on a node
// that cannot even be started (the demand path reports that error).
func (c *raCache) prefetch(s *Server, ent *dirent, e *raEntry) bool {
	if e.st.Windows() == raDepth || e.next >= ent.meta.Blocks {
		return false
	}
	// next moves first: the window is in flight while its runs are sent.
	at := e.next
	w := c.window(ent, at)
	e.next += int64(w)
	if s.openVec(&e.st, ent, at, w, nil) != nil {
		e.next = at
		return false
	}
	return true
}

// raAhead is the request loop's post-reply step: it tops the reader the last
// request served up to raDepth windows in flight, its sends off the client's
// path, traced as server.prefetch under the request (parent) that queued it.
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
		c.remove(c.order[0])
	}
	e := &raEntry{st: s.newStream()}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.byName[key.name] = append(c.byName[key.name], key)
	return e
}

// remove forgets one reader's entry, abandoning its windows in flight.
func (c *raCache) remove(key raKey) {
	e := c.entries[key]
	e.st.Drop()
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

// invalidate drops every reader's buffer for a file, before any mutation or
// removal of it, so a buffer can never outlive the bytes it caches.
func (c *raCache) invalidate(s *Server, name string) {
	if len(c.byName[name]) == 0 {
		return
	}
	for len(c.byName[name]) > 0 {
		c.remove(c.byName[name][0])
	}
	s.m.raInvalidations.Add(1)
}

// invalidateAll empties the cache: after a node repair, anything may predate the crash.
func (c *raCache) invalidateAll() {
	for len(c.order) > 0 {
		c.remove(c.order[0])
	}
}

// raInvalidate drops read-ahead state for a file, if the cache is on.
func (s *Server) raInvalidate(name string) {
	if s.ra != nil {
		s.ra.invalidate(s, name)
	}
}
