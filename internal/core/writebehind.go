package core

import (
	"fmt"

	"bridge/internal/sim"
)

// Server-side write-behind with group commit. When Config.WriteBehind is n>0,
// sequential appends to formulaic files are acknowledged as soon as they are
// buffered; every window of n×p blocks is flushed as one vectored group
// commit (one WriteVecReq per node, all started before any is awaited).
// While one window's flush is in flight the next window fills, so the
// client-visible append cost converges on the request RTT alone.
//
// The contract for acknowledged-but-unflushed data:
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
//     failure surfaces exactly once — wrapped in ErrDeferredWrite — on
//     whichever operation hit the barrier.
type wbEntry struct {
	buf      [][]byte // acknowledged payloads not yet handed to the LFS layer
	bufStart int64    // global block number of buf[0]

	// One window may be in flight: started vectored calls covering
	// [pendStart, pendStart+pendCount), awaited by the next flush or
	// barrier.
	pend      []vecCall
	pendStart int64
	pendCount int
}

type wbCache struct {
	stripes int // Config.WriteBehind: window size in per-node stripes
	entries map[string]*wbEntry
}

func newWBCache(stripes int) *wbCache {
	return &wbCache{stripes: stripes, entries: make(map[string]*wbEntry)}
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
// flushing a full window asynchronously. The file's logical size advances
// on acknowledgement; wbFail rolls it back if the landing later fails.
func (s *Server) wbAppend(p sim.Proc, ent *dirent, payload []byte) error {
	e := s.wb.entries[ent.meta.Name]
	if e == nil {
		e = &wbEntry{}
		s.wb.entries[ent.meta.Name] = e
	}
	if len(e.buf) == 0 {
		e.bufStart = ent.meta.Blocks
	}
	e.buf = append(e.buf, payload)
	ent.meta.Blocks++
	s.m.wbBuffered.Add(1)
	if len(e.buf) >= s.wb.window(ent) {
		return s.wbFlushWindow(p, ent, e)
	}
	return nil
}

// wbFlushWindow awaits the previous in-flight window, then starts (but does
// not await) the buffered one. The overlap is what hides the flush latency
// behind the client's feed rate.
func (s *Server) wbFlushWindow(p sim.Proc, ent *dirent, e *wbEntry) error {
	if err := s.wbAwaitPend(p, ent, e); err != nil {
		return err
	}
	calls, err := s.startWriteVec(ent, e.bufStart, e.buf)
	if err != nil {
		return s.wbFail(ent, e, e.bufStart, err)
	}
	e.pend, e.pendStart, e.pendCount = calls, e.bufStart, len(e.buf)
	e.buf = nil
	s.m.wbFlushes.Add(1)
	s.m.wbFlushedBlocks.Add(int64(e.pendCount))
	return nil
}

// wbAwaitPend gathers the in-flight window, if any. On failure the file is
// rolled back to the landed prefix.
func (s *Server) wbAwaitPend(p sim.Proc, ent *dirent, e *wbEntry) error {
	if e.pend == nil {
		return nil
	}
	calls, start, count := e.pend, e.pendStart, e.pendCount
	e.pend, e.pendStart, e.pendCount = nil, 0, 0
	prefix, err := s.gatherWriteVec(p, ent, calls, start, count)
	if err != nil {
		return s.wbFail(ent, e, start+int64(prefix), err)
	}
	return nil
}

// wbFail is the deferred-error path: acknowledged blocks past landedEnd are
// lost, the file's size rolls back to the landed contiguous prefix, and the
// wrapped error surfaces once on the operation that hit the barrier.
func (s *Server) wbFail(ent *dirent, e *wbEntry, landedEnd int64, err error) error {
	lost := ent.meta.Blocks - landedEnd
	ent.meta.Blocks = landedEnd
	delete(s.wb.entries, ent.meta.Name)
	s.m.wbDeferredErrors.Add(int64(lost))
	return fmt.Errorf("%w: %s: %d acknowledged blocks rolled back (size now %d): %v",
		ErrDeferredWrite, ent.meta.Name, lost, landedEnd, err)
}

// wbBarrier drains a file's write-behind state — in-flight window first,
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
	flushed := e.pendCount
	if err := s.wbAwaitPend(p, ent, e); err != nil {
		return 0, err
	}
	if len(e.buf) > 0 {
		n := len(e.buf)
		start := e.bufStart
		buf := e.buf
		e.buf = nil
		prefix, err := s.lfsWriteN(p, ent, start, buf)
		if err != nil {
			return flushed + prefix, s.wbFail(ent, e, start+int64(prefix), err)
		}
		flushed += n
		s.m.wbFlushes.Add(1)
		s.m.wbFlushedBlocks.Add(int64(n))
	}
	delete(s.wb.entries, ent.meta.Name)
	return flushed, nil
}

// wbDrop quiesces a file's write-behind state without flushing the buffer:
// the file is being deleted, so buffered data has nowhere to go. The
// in-flight window is still gathered — its replies must not leak into a
// later request — but its outcome is irrelevant to a file being destroyed.
func (s *Server) wbDrop(p sim.Proc, ent *dirent) {
	if s.wb == nil {
		return
	}
	e := s.wb.entries[ent.meta.Name]
	if e == nil {
		return
	}
	if e.pend != nil {
		_, _ = s.gatherWriteVec(p, ent, e.pend, e.pendStart, e.pendCount)
	}
	delete(s.wb.entries, ent.meta.Name)
}
