package core

import (
	"fmt"
	"slices"

	"bridge/internal/obs"
	"bridge/internal/sim"
)

// Server-side write-behind with group commit (DESIGN.md "Windowed streams").
// When Config.WriteBehind is n>0, sequential appends to formulaic files are
// acknowledged as soon as they are buffered, and every window of n×p blocks
// lands as one vectored group commit (one WriteVecReq per node) on the file's
// stream. The append that fills a window only arms it: the sends and the
// takes are the request loop's idle work (wbStep), one message per step.
//
// The contract for acknowledged-but-unlanded data:
//
//   - Every read, overwrite, size refresh, delete, and maintenance sweep
//     drains the file's buffer first (drainWB, which wraps wbBarrier with
//     the replicated group's markers), so no operation can observe a size
//     the data hasn't caught up to, and the read-ahead cache can never
//     serve a block the write path still owns.
//   - An explicit Flush (Client.Flush / FlushAll, Session.Sync above) is the
//     durability barrier: it drains the buffer, then syncs the file's nodes.
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
	buf      [][]byte  // acknowledged payloads not yet armed
	bufStart int64     // global block number of buf[0]
	st       vecStream // the live window, if any, and its calls
	// What the live window flushes, one vectored write per run, and the
	// request that armed it, under which its steps are traced.
	payloads [][]byte
	runs     []vecRun
	trace    obs.TraceID
	parent   obs.SpanID
}

// wbDepth is how many windows of a file land at once: one, while the next
// fills, so at most two are acknowledged but not landed.
const wbDepth = 1

type wbCache struct {
	stripes int // Config.WriteBehind: window size in per-node stripes
	entries map[string]*wbEntry
	// armed is the entries with a live window, in arming order: steps' order.
	armed []*wbEntry
	// parked is a group of one's deferred-write errors from windows that
	// failed in a step, kept until the next operation on the file.
	parked map[string]error
}

func newWBCache(stripes int) *wbCache {
	return &wbCache{stripes: stripes, entries: make(map[string]*wbEntry), parked: make(map[string]error)}
}

// wbAppend buffers one appended block and acknowledges it immediately,
// arming the window it fills. The file's logical size advances on
// acknowledgement; wbFail rolls it back if the landing later fails.
func (s *Server) wbAppend(ent *dirent, payload []byte) error {
	e := s.wb.entries[ent.meta.Name]
	if e == nil {
		e = &wbEntry{ent: ent, st: s.newStream()}
		s.wb.entries[ent.meta.Name] = e
	}
	if len(e.buf) == 0 {
		e.bufStart = ent.meta.Blocks
	}
	e.buf = append(e.buf, payload)
	ent.meta.Blocks++
	s.m.wbBuffered.Add(1)
	// A window is stripes blocks per node: one vectored run for each.
	if len(e.buf) >= max(1, min(s.wb.stripes*ent.meta.Spec.P, maxBatchBlocks)) {
		return s.wbArm(e)
	}
	return nil
}

// wbArm makes the full buffer the window the steps land next: it opens the
// window, split into its per-node runs, and sends nothing. With wbDepth
// windows live, the oldest is finished first, inline.
func (s *Server) wbArm(e *wbEntry) error {
	if e.st.Windows() == wbDepth {
		if _, err := s.wbFinish(e); err != nil {
			return err
		}
	}
	l, err := e.ent.layout()
	if err != nil {
		return s.wbFail(e, e.bufStart, err)
	}
	e.payloads, e.runs = e.buf, splitRange(e.ent, l, e.bufStart, len(e.buf))
	e.trace, e.parent = s.curTrace, s.curSpan.ID()
	e.st.Open(e.bufStart, len(e.buf))
	s.wb.armed = append(s.wb.armed, e)
	s.m.wbFlushes.Add(1)
	s.m.wbFlushedBlocks.Add(int64(len(e.buf)))
	e.buf = nil
	return nil
}

// wbSend starts the live window's next run. A run that cannot start leaves
// nothing of the window in flight, and rolls the file back to its start.
func (s *Server) wbSend(e *wbEntry) error {
	start, _ := e.st.Window(0)
	if err := s.startRun(&e.st, e.ent, e.runs[e.st.Len()], start, e.payloads); err != nil {
		s.wbDone(e)
		return s.wbFail(e, start, err)
	}
	return nil
}

// wbFinish lands the entry's live window, if any, inline: it starts the runs
// no step has started and takes the window. It returns the window's size; on
// failure the file rolls back to the landed prefix.
func (s *Server) wbFinish(e *wbEntry) (int, error) {
	if e.st.Windows() == 0 {
		return 0, nil
	}
	for e.st.Len() < len(e.runs) {
		if err := s.wbSend(e); err != nil {
			return 0, err
		}
	}
	start, count := e.st.Window(0)
	prefix, err := s.takeWrite(&e.st, e.ent)
	s.wbDone(e)
	if err != nil {
		return 0, s.wbFail(e, start+int64(prefix), err)
	}
	return count, nil
}

// wbDone retires the entry's window, which its stream no longer holds.
func (s *Server) wbDone(e *wbEntry) {
	e.payloads, e.runs = nil, nil
	s.wb.armed = slices.DeleteFunc(s.wb.armed, func(a *wbEntry) bool { return a == e })
}

// wbStep is the request loop's idle work: one step of the first armed window,
// in arming order, that has one — start its next run (sends first, so the
// disks start early), or else take a reply that has already arrived, landing
// the window with its last. It takes none on a server that may not write
// (wbMayStep). A failure rolls the file back and parks the error; each step
// is traced as server.wbflush under the request that armed the window.
func (s *Server) wbStep(p sim.Proc) bool {
	if s.wb == nil || len(s.wb.armed) == 0 || !s.wbMayStep(p) {
		return false
	}
	at := p.Now() // a reply a step takes costs its receipt
	for _, e := range s.wb.armed {
		send := e.st.Len() < len(e.runs)
		if !send && !e.st.Step() {
			continue
		}
		rec := s.net.Recorder()
		var sp obs.SpanRef
		if rec != nil {
			sp = rec.Start(at, e.trace, e.parent, "server.wbflush", int(s.cfg.Node))
			s.lc.C.SetTrace(e.trace, sp.ID())
		}
		var err error
		if send {
			err = s.wbSend(e)
		} else if e.st.Arrived() {
			_, err = s.wbFinish(e) // every reply is in hand: no wait
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
	return false
}

// wbFail is the deferred-error path: acknowledged blocks past landedEnd are
// lost, the file's size rolls back to the landed contiguous prefix, and the
// wrapped error surfaces once on the file's next operation. The entry's
// window is done (taken or dropped) before it is called.
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
func (s *Server) wbBarrier(ent *dirent) (int, error) {
	if s.wb == nil {
		return 0, nil
	}
	e := s.wb.entries[ent.meta.Name]
	if e == nil {
		return 0, nil
	}
	flushed, err := s.wbFinish(e)
	if err != nil {
		return 0, err
	}
	if n := len(e.buf); n > 0 {
		start, buf := e.bufStart, e.buf
		e.buf = nil
		prefix, err := s.lfsWriteN(ent, start, buf)
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
// file is being deleted, so its buffer and parked error go with it. The live
// window's started calls are still taken, so that their writes cannot race
// the delete; what they answer does not matter.
func (s *Server) wbDrop(ent *dirent) {
	if s.wb == nil {
		return
	}
	delete(s.wb.parked, ent.meta.Name)
	e := s.wb.entries[ent.meta.Name]
	if e == nil {
		return
	}
	if e.st.Windows() > 0 {
		_, _ = s.takeWrite(&e.st, ent)
		s.wbDone(e)
	}
	delete(s.wb.entries, ent.meta.Name)
}
