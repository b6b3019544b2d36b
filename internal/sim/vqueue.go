package sim

import (
	"container/heap"
	"slices"
	"time"
)

// vQueue is the virtual-time queue. Items carry an availability time so
// that transport latency can be modeled: a receiver cannot observe an item
// before its time, and a receiver that would otherwise idle sleeps exactly
// until the head item becomes available.
type vQueue struct {
	rt      *vRuntime
	name    string
	items   itemHeap
	waiters []*vproc
	closed  bool
}

var _ Queue = (*vQueue)(nil)

type vitem struct {
	v   any
	at  time.Duration
	seq uint64
}

func (q *vQueue) Name() string { return q.name }

func (q *vQueue) Len() int {
	q.rt.mu.Lock()
	defer q.rt.mu.Unlock()
	return q.items.Len()
}

func (q *vQueue) Send(v any) bool {
	q.rt.mu.Lock()
	defer q.rt.mu.Unlock()
	return q.sendLocked(v, q.rt.now)
}

func (q *vQueue) SendDelayed(v any, d time.Duration) bool {
	q.rt.mu.Lock()
	defer q.rt.mu.Unlock()
	if d < 0 {
		d = 0
	}
	return q.sendLocked(v, q.rt.now+d)
}

func (q *vQueue) sendLocked(v any, at time.Duration) bool {
	if q.closed {
		return false
	}
	q.items.push(vitem{v: v, at: at, seq: q.rt.nextSeq()})
	q.wakeOneLocked(wakeItem)
	return true
}

// wakeOneLocked moves the longest-waiting receiver to the ready list.
func (q *vQueue) wakeOneLocked(reason wakeReason) {
	if len(q.waiters) == 0 {
		return
	}
	w := q.waiters[0]
	q.waiters = slices.Delete(q.waiters, 0, 1) // shifts in place, nils the vacated slot
	w.waitQ = nil
	if w.heapIdx >= 0 {
		heap.Remove(&q.rt.timers, w.heapIdx)
	} else {
		q.rt.waiting--
	}
	w.reason = reason
	q.rt.ready.push(w)
}

func (q *vQueue) removeWaiter(p *vproc) {
	for i, w := range q.waiters {
		if w == p {
			q.waiters = slices.Delete(q.waiters, i, i+1)
			return
		}
	}
}

func (q *vQueue) Recv(pi Proc) (any, bool) {
	p := pi.(*vproc)
	rt := q.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		if q.items.Len() > 0 {
			if q.items[0].at <= rt.now {
				return q.items.pop().v, true
			}
			// Wait as both a queue waiter (an earlier-available item
			// may arrive) and a timer at the head's availability.
			p.waitQ = q
			q.waiters = append(q.waiters, p)
			p.wakeAt = q.items[0].at
			p.wseq = rt.nextSeq()
			heap.Push(&rt.timers, p)
			p.park()
			continue
		}
		if q.closed {
			return nil, false
		}
		p.waitQ = q
		q.waiters = append(q.waiters, p)
		rt.waiting++
		p.park()
		if p.reason == wakeClosed && q.items.Len() == 0 {
			return nil, false
		}
	}
}

func (q *vQueue) TryRecv(Proc) (any, bool, bool) {
	rt := q.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if q.items.Len() > 0 && q.items[0].at <= rt.now {
		return q.items.pop().v, true, false
	}
	return nil, false, q.closed && q.items.Len() == 0
}

func (q *vQueue) RecvTimeout(pi Proc, d time.Duration) (any, bool, bool) {
	p := pi.(*vproc)
	rt := q.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if d < 0 {
		d = 0
	}
	deadline := rt.now + d
	for {
		if q.items.Len() > 0 && q.items[0].at <= rt.now {
			return q.items.pop().v, true, false
		}
		if q.closed && q.items.Len() == 0 {
			return nil, false, false
		}
		if rt.now >= deadline {
			return nil, false, true
		}
		wake := deadline
		if q.items.Len() > 0 && q.items[0].at < wake {
			wake = q.items[0].at
		}
		p.waitQ = q
		q.waiters = append(q.waiters, p)
		p.wakeAt = wake
		p.wseq = rt.nextSeq()
		heap.Push(&rt.timers, p)
		p.park()
	}
}

func (q *vQueue) Close() {
	q.rt.mu.Lock()
	defer q.rt.mu.Unlock()
	q.closeLocked()
}

func (q *vQueue) closeLocked() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters {
		w.waitQ = nil
		if w.heapIdx >= 0 {
			heap.Remove(&q.rt.timers, w.heapIdx)
		} else {
			q.rt.waiting--
		}
		w.reason = wakeClosed
		q.rt.ready.push(w)
	}
	q.waiters = nil
	// A closed queue has no waiters and can gain none without a timer, so
	// neither deadlock unwinding nor its report needs it any more. Search
	// from the end: short-lived reply ports are the usual case.
	qs := q.rt.queues
	for i := len(qs) - 1; i >= 0; i-- {
		if qs[i] == q {
			q.rt.queues = slices.Delete(qs, i, i+1)
			break
		}
	}
}

// itemHeap is a binary min-heap of items ordered by (at, seq), so
// simultaneous sends preserve FIFO. The order is total (seq is unique per
// runtime), so every correct heap pops the same sequence; push and pop are
// typed because container/heap would box each vitem into an any, one
// allocation per call.
type itemHeap []vitem

func (h itemHeap) Len() int { return len(h) }

func (h itemHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *itemHeap) push(it vitem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum item; the heap must not be empty.
func (h *itemHeap) pop() vitem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = vitem{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && s.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && s.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}
