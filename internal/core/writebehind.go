package core

import (
	"fmt"
	"slices"

	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Server-side write-behind with group commit. When Config.WriteBehind is n>0,
// sequential appends to formulaic files are acknowledged as soon as they are
// buffered, and every window of n×p blocks lands as one vectored group commit
// (one WriteVecReq per node). The append that fills a window only arms it:
// the sends and the gathers are the request loop's idle work. After each
// reply, while the request port is empty, the server takes one step (wbStep)
// — it starts one node's write, or takes one reply that has already arrived —
// so a step costs one message's CPU, and a request that arrives meanwhile
// waits for at most one step. While one window lands the next fills; the
// append that fills the next finishes inline whatever of the previous the
// steps have not, so at most one window is in flight and at most two are
// acknowledged but not landed.
//
// The contract for acknowledged-but-unlanded data:
//
//   - Every read, overwrite, size refresh, delete, and maintenance sweep
//     drains the file's buffer first (drainWB, which wraps wbBarrier with
//     the replicated group's markers), so no operation can
//     observe a size the data hasn't caught up to, and the read-ahead
//     cache can never serve a block the write path still owns.
//   - An explicit Flush (Client.Flush / FlushAll, Session.Sync above) is
//     the durability barrier: it drains the buffer and then syncs the
//     file's nodes.
//   - If a group commit fails after its blocks were acknowledged, the
//     file's size rolls back to the landed contiguous prefix and the
//     failure surfaces exactly once — wrapped in ErrDeferredWrite — on the
//     next operation on the file. A failure found by a barrier is that
//     operation's own answer. One found by an idle step has no request to
//     answer, so it is parked until the next operation on the file
//     (parkDeferred: in the cache for a group of one, a client-less
//     ropWBFail for a replicated group). Deleting the file drops it.
type wbEntry struct {
	ent      *dirent
	buf      [][]byte // acknowledged payloads not yet armed
	bufStart int64    // global block number of buf[0]
	win      wbWindow // the window being landed, if live
}

// wbWindow is one group commit: count blocks from start, one vectored write
// per run. runs[i] is started as calls[i] by a step or a barrier, and a step
// may take its reply early into polled[i]; got counts those. trace and
// parent are the request that armed the window, under which its steps are
// traced. A window is live while it has runs.
type wbWindow struct {
	start    int64
	count    int
	payloads [][]byte
	runs     []vecRun
	calls    []vecCall
	polled   []*msg.Message
	got      int
	trace    obs.TraceID
	parent   obs.SpanID
}

type wbCache struct {
	stripes int // Config.WriteBehind: window size in per-node stripes
	entries map[string]*wbEntry
	// armed is the entries with a live window, in the order their windows
	// were armed: the fixed order steps serve them in.
	armed []*wbEntry
	// parked is a group of one's deferred-write errors from windows that
	// failed in a step, kept until the next operation on the file.
	parked map[string]error
}

func newWBCache(stripes int) *wbCache {
	return &wbCache{stripes: stripes, entries: make(map[string]*wbEntry), parked: make(map[string]error)}
}

// window is the flush granularity for a file: stripes blocks per node, so
// every group commit hands each of the file's p nodes one vectored run.
func (w *wbCache) window(ent *dirent) int {
	n := w.stripes * ent.meta.Spec.P
	if n < 1 {
		n = 1
	}
	if n > maxBatchBlocks {
		n = maxBatchBlocks
	}
	return n
}

// wbAppend buffers one appended block and acknowledges it immediately,
// arming the window it fills. The file's logical size advances on
// acknowledgement; wbFail rolls it back if the landing later fails.
func (s *Server) wbAppend(p sim.Proc, ent *dirent, payload []byte) error {
	e := s.wb.entries[ent.meta.Name]
	if e == nil {
		e = &wbEntry{ent: ent}
		s.wb.entries[ent.meta.Name] = e
	}
	if len(e.buf) == 0 {
		e.bufStart = ent.meta.Blocks
	}
	e.buf = append(e.buf, payload)
	ent.meta.Blocks++
	s.m.wbBuffered.Add(1)
	if len(e.buf) >= s.wb.window(ent) {
		return s.wbArm(p, e)
	}
	return nil
}

// wbArm makes the full buffer the window the steps land next: it splits the
// window into its per-node runs and sends nothing. Whatever of the previous
// window the steps have not finished is finished first, inline.
func (s *Server) wbArm(p sim.Proc, e *wbEntry) error {
	if err := s.wbFinish(p, e); err != nil {
		return err
	}
	l, err := e.ent.layout()
	if err != nil {
		return s.wbFail(e, e.bufStart, err)
	}
	w := &e.win
	w.start, w.count, w.payloads = e.bufStart, len(e.buf), e.buf
	w.runs = splitRange(e.ent, l, w.start, w.count)
	w.trace, w.parent = s.curTrace, s.curSpan.ID()
	e.buf = nil
	s.wb.armed = append(s.wb.armed, e)
	s.m.wbFlushes.Add(1)
	s.m.wbFlushedBlocks.Add(int64(w.count))
	return nil
}

// wbStartRun starts the window's next run. A run that cannot start leaves
// nothing of the window in flight — the calls still unanswered are
// discarded — and rolls the file back to the window's start.
func (s *Server) wbStartRun(e *wbEntry) error {
	w := &e.win
	run := w.runs[len(w.calls)]
	req := s.writeVecReq(e.ent, run, w.start, w.payloads)
	c, err := s.lfsStart(run.node, lfs.PortName, req, lfs.WireSize(req))
	if err != nil {
		for i, c := range w.calls {
			if w.polled[i] == nil {
				s.lc.Discard(c.Call)
			}
		}
		start := w.start
		s.wbDone(e)
		return s.wbFail(e, start, err)
	}
	w.calls = append(w.calls, vecCall{lfsPend: c, run: run})
	w.polled = append(w.polled, nil)
	return nil
}

// wbFinish lands the entry's live window, if any, inline: it starts every run
// no step has started and gathers every reply, the polled ones and the rest
// through lfsFinish. On failure the file rolls back to the landed prefix.
func (s *Server) wbFinish(p sim.Proc, e *wbEntry) error {
	w := &e.win
	if w.runs == nil {
		return nil
	}
	for len(w.calls) < len(w.runs) {
		if err := s.wbStartRun(e); err != nil {
			return err
		}
	}
	prefix, err := s.gatherWriteVec(p, e.ent, w.calls, w.polled, w.start, w.count)
	start := w.start
	s.wbDone(e)
	if err != nil {
		return s.wbFail(e, start+int64(prefix), err)
	}
	return nil
}

// wbDone retires the entry's window, keeping its slices for the next one.
func (s *Server) wbDone(e *wbEntry) {
	w := &e.win
	clear(w.calls)
	clear(w.polled)
	*w = wbWindow{calls: w.calls[:0], polled: w.polled[:0]}
	s.wb.armed = slices.DeleteFunc(s.wb.armed, func(a *wbEntry) bool { return a == e })
}

// wbStep is the request loop's idle work: one step of the first armed window,
// in arming order, that has one to take — start its next run, or take a reply
// that has already arrived (gathering the window once its last reply is in).
// It reports whether it took one; it takes none on a server that may not
// write (wbMayStep). A window that fails rolls its file back at once and
// parks the error for the file's next operation. Each step is traced as
// server.wbflush under the request that armed the window.
func (s *Server) wbStep(p sim.Proc) bool {
	if s.wb == nil || len(s.wb.armed) == 0 || !s.wbMayStep(p) {
		return false
	}
	at := p.Now()
	e, i, m := s.wbPick()
	if e == nil {
		return false
	}
	w := &e.win
	rec := s.net.Recorder()
	var sp obs.SpanRef
	if rec != nil {
		sp = rec.Start(at, w.trace, w.parent, "server.wbflush", int(s.cfg.Node))
		s.lc.C.SetTrace(w.trace, sp.ID())
	}
	var err error
	if m == nil {
		err = s.wbStartRun(e)
	} else {
		w.polled[i] = m
		if w.got++; w.got == len(w.runs) {
			err = s.wbFinish(p, e) // every reply is in hand: no wait
		}
	}
	if err != nil {
		s.parkDeferred(p, e.ent, err)
	}
	if rec != nil {
		sp.End(p.Now(), err)
		s.lc.C.SetTrace(0, 0)
	}
	return true
}

// wbPick finds the next step: the first armed entry with a run to start (m
// nil), or else with a reply to call i that has arrived (m). Sends come first
// so the disks start early; a reply can wait.
func (s *Server) wbPick() (e *wbEntry, i int, m *msg.Message) {
	for _, e := range s.wb.armed {
		w := &e.win
		if len(w.calls) < len(w.runs) {
			return e, len(w.calls), nil
		}
		for i, c := range w.calls {
			if w.polled[i] != nil {
				continue
			}
			if m, ok := s.lc.Poll(c.Call); ok {
				return e, i, m
			}
		}
	}
	return nil, 0, nil
}

// wbFail is the deferred-error path: acknowledged blocks past landedEnd are
// lost, the file's size rolls back to the landed contiguous prefix, and the
// wrapped error surfaces once on the file's next operation. The entry's
// window is done (gathered or discarded) before it is called.
func (s *Server) wbFail(e *wbEntry, landedEnd int64, err error) error {
	ent := e.ent
	lost := ent.meta.Blocks - landedEnd
	ent.meta.Blocks = landedEnd
	delete(s.wb.entries, ent.meta.Name)
	s.m.wbDeferredErrors.Add(int64(lost))
	return fmt.Errorf("%w: %s: %d acknowledged blocks rolled back (size now %d): %v",
		ErrDeferredWrite, ent.meta.Name, lost, landedEnd, err)
}

// wbBarrier drains a file's write-behind state — the live window first,
// then the buffer, synchronously — and reports how many blocks it pushed.
// After a successful barrier the file has no write-behind state and every
// acknowledged block is in the LFS layer (not necessarily synced: that is
// the explicit Flush's job).
func (s *Server) wbBarrier(p sim.Proc, ent *dirent) (int, error) {
	if s.wb == nil {
		return 0, nil
	}
	e := s.wb.entries[ent.meta.Name]
	if e == nil {
		return 0, nil
	}
	flushed := e.win.count
	if err := s.wbFinish(p, e); err != nil {
		return 0, err
	}
	if len(e.buf) > 0 {
		n := len(e.buf)
		start := e.bufStart
		buf := e.buf
		e.buf = nil
		prefix, err := s.lfsWriteN(p, ent, start, buf)
		if err != nil {
			return flushed + prefix, s.wbFail(e, start+int64(prefix), err)
		}
		flushed += n
		s.m.wbFlushes.Add(1)
		s.m.wbFlushedBlocks.Add(int64(n))
	}
	delete(s.wb.entries, ent.meta.Name)
	return flushed, nil
}

// wbDrop quiesces a file's write-behind state without landing anything: the
// file is being deleted, so buffered data and a parked error have nowhere to
// go. The live window's started calls are still gathered — their replies
// must not leak into a later request, nor their writes race the delete — but
// their outcome is irrelevant to a file being destroyed.
func (s *Server) wbDrop(p sim.Proc, ent *dirent) {
	if s.wb == nil {
		return
	}
	delete(s.wb.parked, ent.meta.Name)
	e := s.wb.entries[ent.meta.Name]
	if e == nil {
		return
	}
	if w := &e.win; len(w.calls) > 0 {
		_, _ = s.gatherWriteVec(p, ent, w.calls, w.polled, w.start, w.count)
	}
	s.wbDone(e)
	delete(s.wb.entries, ent.meta.Name)
}
