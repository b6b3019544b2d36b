package core

import (
	"slices"

	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Server-side read-ahead for naive sequential readers (DESIGN.md "Windowed
// streams"). Instead of one round trip per block, the server fetches a whole
// window (ReadAhead stripes of p blocks) with one scatter-gather on a miss,
// and keeps the next raDepth runs of raRun windows in flight on the reader's
// stream, each run one vectored call per node. A request starts only the
// runs its own blocks run into; raAhead, after the reply, tops the reader
// up. Entries are keyed by (client, file), and a mutation drops a file's
// entries — their runs in flight discarded — before any block is written, so
// no interleaving of readers and writers can serve stale bytes.

// raEntryCap bounds the (client, file) buffers, evicted FIFO, and so memory:
// at most raEntryCap × (1 + raDepth) runs of at most maxBatchBlocks blocks.
const raEntryCap = 64

// raRun is how many consecutive windows one prefetch fetches, as one vectored
// call per node. Every LFS call costs the server a message's CPU however many
// blocks it carries, and a node's disk reads a whole 8-block track per access:
// on stream_read (ReadN(32), 32-block windows over 8 nodes) a run of two is
// one track per node per call. By run (at the best depth), sim ms/op, LFS
// calls per block, disk utilisation, and tail / slowest op in ms: 1 →
// 0.467, 0.25, 0.50, 18.9 / 31.7; 2 → 0.295, 0.125, 0.80, 10.3 / 30.0; 3 →
// 0.256, 0.084, 0.92, 13.7 / 43.8; 4 → 0.251, 0.063, 0.94, 15.6 / 44.7 —
// longer runs make the read that waits for one slower. A miss still fetches a
// single window: a miss run of two made the cold first read 45.9 ms, not 30.0.
const raRun = 2

// raDepth is how many runs a reader keeps in flight past the one it is served
// from. Two requests' server work is shorter than an LFS round trip with a
// 15 ms track read; two is the least depth at which no fill waits
// (TestReadAheadStaysAhead). stream_read by depth at raRun 2, sim ms/op and
// slowest op: 1 → 0.436, 30.0; 2 → 0.295, 30.0; 3 → 0.295, 30.0; 4 → 0.295,
// 34.1 — deeper runs only queue on the disks.
const raDepth = 2

// raKey identifies one sequential reader's buffer.
type raKey struct {
	client msg.Addr
	name   string
}

// raEntry is one reader's buffered window or run plus the runs in flight
// after it.
type raEntry struct {
	start  int64     // global block number of blocks[0]
	blocks [][]byte  // contiguous run of payloads
	st     vecStream // the runs in flight, in file order, one stream window each
	next   int64     // the first block neither buffered nor in flight
}

type raCache struct {
	stripes int // window size in stripes (of p blocks each)
	entries map[raKey]*raEntry
	order   []raKey // FIFO eviction order of the live entries
	byName  map[string][]raKey
	// due is the reader the request being served left short of raDepth
	// runs in flight, for raAhead to top up; nil when there is none.
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

// window is the fetch size at pos of windows consecutive windows of
// ReadAhead stripes of p blocks, clipped to maxBatchBlocks and the file's end.
func (c *raCache) window(ent *dirent, pos int64, windows int) int {
	w := min(windows*max(1, c.stripes*ent.meta.Spec.P), maxBatchBlocks)
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
		// Miss (cold start, a rewind, a failed prefetch): drop the runs in
		// flight and fetch one window synchronously, with its own retries.
		e.st.Drop()
		w := c.window(ent, pos, 1)
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

// fill takes the entry's oldest run into its buffer. When the request runs
// past it (to end) and nothing after it is in flight, the next is started
// first, so a batch larger than a run overlaps each fetch with the one
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

// prefetch opens the run at the entry's next block and reports whether it
// did: not at the end of the file, at raDepth runs in flight, or on a node
// that cannot even be started (the demand path reports that error).
func (c *raCache) prefetch(s *Server, ent *dirent, e *raEntry) bool {
	if e.st.Windows() == raDepth || e.next >= ent.meta.Blocks {
		return false
	}
	// next moves first: the run is in flight while its calls are sent.
	at := e.next
	w := c.window(ent, at, raRun)
	e.next += int64(w)
	if s.openVec(&e.st, ent, at, w, nil) != nil {
		e.next = at
		return false
	}
	return true
}

// raAhead is the request loop's post-reply step: it tops the reader the last
// request served up to raDepth runs in flight, its sends off the client's
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

// remove forgets one reader's entry, abandoning its runs in flight.
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
