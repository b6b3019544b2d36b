package sim

import (
	"slices"
	"sync"
	"time"
)

// NewReal returns a wall-clock runtime. scale converts simulated time to
// host time: with scale 0.001 a 15ms simulated disk access sleeps 15µs of
// host time. All Runtime and Queue methods still speak simulated units.
// scale <= 0 means 1.0 (unscaled).
//
// The real runtime schedules processes preemptively on the Go scheduler, so
// it is not deterministic and it cannot detect deadlock; it exists to
// cross-check virtual-time results and to host real network transports.
func NewReal(scale float64) Runtime {
	if scale <= 0 {
		scale = 1
	}
	return &rRuntime{scale: scale, start: time.Now()}
}

type rRuntime struct {
	scale float64
	start time.Time
	wg    sync.WaitGroup
}

var _ Runtime = (*rRuntime)(nil)

func (rt *rRuntime) Virtual() bool { return false }
func (rt *rRuntime) Err() error    { return nil }

// toHost converts a simulated duration to a host duration.
func (rt *rRuntime) toHost(d time.Duration) time.Duration {
	return time.Duration(float64(d) * rt.scale)
}

func (rt *rRuntime) Now() time.Duration {
	return time.Duration(float64(time.Since(rt.start)) / rt.scale)
}

func (rt *rRuntime) Go(name string, fn func(Proc)) {
	p := &rproc{rt: rt, name: name}
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		fn(p)
	}()
}

func (rt *rRuntime) NewQueue(name string) Queue {
	return &rQueue{rt: rt, name: name}
}

func (rt *rRuntime) Wait() error {
	rt.wg.Wait()
	return nil
}

func (rt *rRuntime) Run(name string, fn func(Proc)) error {
	rt.Go(name, fn)
	return rt.Wait()
}

type rproc struct {
	rt   *rRuntime
	name string
}

var _ Proc = (*rproc)(nil)

func (p *rproc) Name() string       { return p.name }
func (p *rproc) Runtime() Runtime   { return p.rt }
func (p *rproc) Now() time.Duration { return p.rt.Now() }

func (p *rproc) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(p.rt.toHost(d))
}

func (p *rproc) Go(name string, fn func(Proc)) {
	p.rt.Go(name, fn)
}

// rQueue is the wall-clock queue. Each blocked receiver registers a private
// wake channel; senders wake the longest-waiting receiver.
type rQueue struct {
	rt      *rRuntime
	name    string
	mu      sync.Mutex
	items   itemHeap
	seq     uint64
	waiters []chan struct{}
	closed  bool
}

var _ Queue = (*rQueue)(nil)

func (q *rQueue) Name() string { return q.name }

func (q *rQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

func (q *rQueue) Send(v any) bool { return q.sendAt(v, q.rt.Now()) }

func (q *rQueue) SendDelayed(v any, d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	return q.sendAt(v, q.rt.Now()+d)
}

func (q *rQueue) sendAt(v any, at time.Duration) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.seq++
	q.items.push(vitem{v: v, at: at, seq: q.seq})
	q.wakeOneLocked()
	q.mu.Unlock()
	return true
}

func (q *rQueue) wakeOneLocked() {
	if len(q.waiters) == 0 {
		return
	}
	ch := q.waiters[0]
	q.waiters = slices.Delete(q.waiters, 0, 1)
	close(ch)
}

func (q *rQueue) wakeAllLocked() {
	for _, ch := range q.waiters {
		close(ch)
	}
	q.waiters = nil
}

func (q *rQueue) removeWaiterLocked(ch chan struct{}) {
	for i, w := range q.waiters {
		if w == ch {
			q.waiters = slices.Delete(q.waiters, i, i+1)
			return
		}
	}
}

// recv implements Recv (deadline < 0) and RecvTimeout (deadline >= 0, in
// simulated time).
func (q *rQueue) recv(deadline time.Duration) (any, bool, bool) {
	for {
		q.mu.Lock()
		now := q.rt.Now()
		if q.items.Len() > 0 && q.items[0].at <= now {
			v := q.items.pop().v
			// More items may already be available for other waiters.
			if q.items.Len() > 0 && q.items[0].at <= now {
				q.wakeOneLocked()
			}
			q.mu.Unlock()
			return v, true, false
		}
		if q.closed && q.items.Len() == 0 {
			q.mu.Unlock()
			return nil, false, false
		}
		if deadline >= 0 && now >= deadline {
			q.mu.Unlock()
			return nil, false, true
		}
		// Next wake: head availability or deadline, whichever first.
		wake := time.Duration(-1)
		if q.items.Len() > 0 {
			wake = q.items[0].at
		}
		if deadline >= 0 && (wake < 0 || deadline < wake) {
			wake = deadline
		}
		ch := make(chan struct{})
		q.waiters = append(q.waiters, ch)
		q.mu.Unlock()

		if wake < 0 {
			<-ch
			continue
		}
		t := time.NewTimer(q.rt.toHost(wake - now))
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			q.mu.Lock()
			q.removeWaiterLocked(ch)
			q.mu.Unlock()
		}
	}
}

func (q *rQueue) Recv(Proc) (any, bool) {
	v, ok, _ := q.recv(-1)
	return v, ok
}

func (q *rQueue) RecvTimeout(_ Proc, d time.Duration) (any, bool, bool) {
	if d < 0 {
		d = 0
	}
	return q.recv(q.rt.Now() + d)
}

func (q *rQueue) TryRecv(Proc) (any, bool, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.Len() > 0 && q.items[0].at <= q.rt.Now() {
		return q.items.pop().v, true, false
	}
	return nil, false, q.closed && q.items.Len() == 0
}

func (q *rQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.wakeAllLocked()
}
