package lfs

import "bridge/internal/msg"

// Stream holds a caller's calls to storage nodes in flight ahead of its need:
// started vectored calls in start order, grouped into windows of consecutive
// blocks, oldest first. How many windows are in flight (the depth), what each
// fetches or flushes and when they are dropped is the owner's policy; so is
// waiting: Finish is its way to finish a call on C (the server's lfsFinish, a
// tool's Client.Await). Only a Stream polls a call (bridgevet's untimedwait).
type Stream[P Pend] struct {
	C      *Client
	Finish func(*Client, P) (*msg.Message, error)
	calls  []slot[P]
	wins   []window
}

// Pend is a started call as its owner keeps it: the Call, and whatever the
// owner needs to finish it or to use its reply.
type Pend interface{ Started() Call }

// Started makes a bare Call a Pend.
func (c Call) Started() Call { return c }

// slot is a call in flight, or in hand once a Step took its reply m.
type slot[P Pend] struct {
	c P
	m *msg.Message
}

// window is count blocks from start, carried by calls calls.
type window struct {
	start int64
	count int
	calls int
}

// Open begins a window of count blocks from start, numbered as the owner
// numbers them; the calls Start enters next are its.
func (st *Stream[P]) Open(start int64, count int) {
	st.wins = append(st.wins, window{start: start, count: count})
}

// Start enters the owner's next started call into the newest window, or the
// error that kept it from starting. Then the newest window is dropped — its
// calls still in flight are discarded — and Start returns the error.
func (st *Stream[P]) Start(c P, err error) error {
	w := &st.wins[len(st.wins)-1]
	if err != nil {
		st.discard(len(st.calls) - w.calls)
		st.wins = st.wins[:len(st.wins)-1]
		return err
	}
	st.calls = append(st.calls, slot[P]{c: c})
	w.calls++
	return nil
}

// Step takes at most one reply that has already arrived — the first, in
// start order, of a call without one — and reports whether it took one. It
// never waits: a step that finds nothing takes no virtual time.
func (st *Stream[P]) Step() bool {
	for i := range st.calls {
		if sl := &st.calls[i]; sl.m == nil {
			if m, ok := st.C.Poll(sl.c.Started()); ok {
				sl.m = m
				return true
			}
		}
	}
	return false
}

// Arrived reports whether the oldest window's every reply is in hand.
func (st *Stream[P]) Arrived() bool {
	for _, sl := range st.calls[:st.wins[0].calls] {
		if sl.m == nil {
			return false
		}
	}
	return true
}

// Take finishes the oldest window's calls in start order — a reply a Step
// took as it is, the rest through Finish — and hands each to fn, which stops
// the take by returning false: the window's unfinished calls are discarded.
// The window is gone when Take returns.
func (st *Stream[P]) Take(fn func(c P, m *msg.Message, err error) bool) {
	n, i := st.wins[0].calls, 0
	for i < n {
		sl := st.calls[i]
		i++
		m, err := sl.m, error(nil)
		if m == nil {
			m, err = st.Finish(st.C, sl.c)
		}
		if !fn(sl.c, m, err) {
			break
		}
	}
	st.abandon(st.calls[i:n])
	k := copy(st.calls, st.calls[n:])
	clear(st.calls[k:])
	st.calls = st.calls[:k]
	st.wins = st.wins[:copy(st.wins, st.wins[1:])]
}

// Drop abandons every window, discarding the calls without a reply in hand.
// An owner that must not leave its calls running takes its windows instead.
func (st *Stream[P]) Drop() {
	st.discard(0)
	st.wins = st.wins[:0]
}

// discard abandons the calls from index from on and forgets them.
func (st *Stream[P]) discard(from int) {
	st.abandon(st.calls[from:])
	clear(st.calls[from:])
	st.calls = st.calls[:from]
}

// abandon discards the calls that have no reply in hand.
func (st *Stream[P]) abandon(calls []slot[P]) {
	for _, sl := range calls {
		if sl.m == nil {
			st.C.Discard(sl.c.Started())
		}
	}
}

// Windows is how many windows are in flight.
func (st *Stream[P]) Windows() int { return len(st.wins) }

// Window is the i-th window in flight, oldest first: count blocks from start.
func (st *Stream[P]) Window(i int) (start int64, count int) {
	return st.wins[i].start, st.wins[i].count
}

// Len is how many calls the windows in flight carry, started or in hand.
func (st *Stream[P]) Len() int { return len(st.calls) }
