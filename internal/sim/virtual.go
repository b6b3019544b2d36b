package sim

import (
	"container/heap"
	"fmt"
	"strings"
	"sync"
	"time"
)

// NewVirtual returns a deterministic discrete-event runtime. Exactly one
// process executes at a time; the clock advances to the earliest pending
// timer whenever every process is blocked. Given deterministic process code,
// two runs produce identical event orders and identical timings.
func NewVirtual() Runtime {
	return &vRuntime{}
}

type wakeReason uint8

const (
	wakeTimer wakeReason = iota + 1
	wakeItem
	wakeClosed
)

type vRuntime struct {
	mu      sync.Mutex
	now     time.Duration
	started bool
	active  *vproc
	ready   procFIFO
	timers  timerHeap
	waiting int // processes blocked on queues with no pending timer
	err     error
	queues  []*vQueue // open queues, in creation order
	seq     uint64
	wg      sync.WaitGroup

	// slowSleep disables Sleep's in-place clock advance. Only the order
	// test sets it, to hold the fast path to the scheduler it shortcuts.
	slowSleep bool
}

var _ Runtime = (*vRuntime)(nil)

func (rt *vRuntime) Now() time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.now
}

func (rt *vRuntime) Err() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

func (rt *vRuntime) Go(name string, fn func(Proc)) {
	p := &vproc{rt: rt, name: name, runCh: make(chan struct{}, 1), heapIdx: -1}
	rt.mu.Lock()
	rt.ready.push(p)
	// If the simulation is already running but momentarily idle (all
	// other processes exited), restart the scheduler.
	if rt.started && rt.active == nil {
		rt.schedule()
	}
	rt.mu.Unlock()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		<-p.runCh
		// Deferred, so a process that ends in runtime.Goexit (t.Fatal,
		// t.SkipNow) still passes the scheduler on.
		defer func() {
			rt.mu.Lock()
			rt.active = nil
			rt.schedule()
			rt.mu.Unlock()
		}()
		fn(p)
	}()
}

func (rt *vRuntime) NewQueue(name string) Queue {
	q := &vQueue{rt: rt, name: name}
	rt.mu.Lock()
	rt.queues = append(rt.queues, q)
	rt.mu.Unlock()
	return q
}

func (rt *vRuntime) Wait() error {
	rt.mu.Lock()
	rt.started = true
	if rt.active == nil {
		rt.schedule()
	}
	rt.mu.Unlock()
	rt.wg.Wait()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

func (rt *vRuntime) Run(name string, fn func(Proc)) error {
	rt.Go(name, fn)
	return rt.Wait()
}

func (rt *vRuntime) nextSeq() uint64 {
	rt.seq++
	return rt.seq
}

// schedule selects the next process to run. The caller holds rt.mu and has
// cleared rt.active. If no process is ready, the clock advances to the
// earliest timer; if there are no timers but processes are blocked on
// queues, the simulation is deadlocked: the error is recorded and every
// queue is closed so that processes can unwind.
func (rt *vRuntime) schedule() {
	for {
		if rt.ready.n > 0 {
			p := rt.ready.pop()
			rt.active = p
			p.runCh <- struct{}{}
			return
		}
		if rt.timers.Len() > 0 {
			t := rt.timers[0].wakeAt
			if t > rt.now {
				rt.now = t
			}
			for rt.timers.Len() > 0 && rt.timers[0].wakeAt == t {
				p := heap.Pop(&rt.timers).(*vproc)
				if p.waitQ != nil {
					p.waitQ.removeWaiter(p)
					p.waitQ = nil
				}
				p.reason = wakeTimer
				rt.ready.push(p)
			}
			continue
		}
		if rt.waiting > 0 {
			if rt.err == nil {
				rt.err = rt.deadlockError()
			}
			// closeLocked drops the queue from rt.queues; detach the
			// list first so the loop does not edit what it ranges over.
			qs := rt.queues
			rt.queues = nil
			for _, q := range qs {
				q.closeLocked()
			}
			continue
		}
		rt.active = nil
		return
	}
}

func (rt *vRuntime) deadlockError() error {
	var b strings.Builder
	for _, q := range rt.queues {
		for _, w := range q.waiters {
			fmt.Fprintf(&b, " %s<-recv(%s)", w.name, q.name)
		}
	}
	return fmt.Errorf("%w at t=%v:%s", ErrDeadlock, rt.now, b.String())
}

// vproc is a virtual-time process. Its wait-state fields double as the
// timer-heap element and the queue-waiter record; all are guarded by rt.mu.
type vproc struct {
	rt    *vRuntime
	name  string
	runCh chan struct{}

	wakeAt  time.Duration
	wseq    uint64 // tie-break so simultaneous timers fire in FIFO order
	heapIdx int    // index in rt.timers, -1 when not scheduled
	waitQ   *vQueue
	reason  wakeReason
}

var _ Proc = (*vproc)(nil)

func (p *vproc) Name() string     { return p.name }
func (p *vproc) Runtime() Runtime { return p.rt }

func (p *vproc) Now() time.Duration {
	return p.rt.Now()
}

func (p *vproc) Sleep(d time.Duration) {
	rt := p.rt
	rt.mu.Lock()
	if d < 0 {
		d = 0
	}
	p.wakeAt = rt.now + d
	p.wseq = rt.nextSeq()
	// With nothing ready and no timer due at or before wakeAt, this
	// process is the scheduler's next pick: its timer would be the heap's
	// minimum, popped alone and run at once. Advance the clock in place.
	// A timer due at the same instant was registered earlier (smaller
	// wseq) and goes first, hence the strict comparison.
	if rt.ready.n == 0 && (len(rt.timers) == 0 || rt.timers[0].wakeAt > p.wakeAt) && !rt.slowSleep {
		rt.now = p.wakeAt
		p.reason = wakeTimer
		rt.mu.Unlock()
		return
	}
	heap.Push(&rt.timers, p)
	p.park()
	rt.mu.Unlock()
}

func (p *vproc) Go(name string, fn func(Proc)) {
	p.rt.Go(name, fn)
}

// park blocks the calling process until the scheduler selects it again.
// Called with rt.mu held and the process already registered in a wait
// structure (timer heap and/or queue waiter list); returns with rt.mu held.
func (p *vproc) park() {
	rt := p.rt
	rt.active = nil
	rt.schedule()
	rt.mu.Unlock()
	<-p.runCh
	rt.mu.Lock()
}

// procFIFO is the ready list: a ring that reuses its storage, so a wake-up
// allocates nothing once the ring has grown to the widest burst.
type procFIFO struct {
	buf  []*vproc // len is zero or a power of two
	head int
	n    int
}

func (f *procFIFO) push(p *vproc) {
	if f.n == len(f.buf) {
		grown := make([]*vproc, max(8, 2*len(f.buf)))
		for i := 0; i < f.n; i++ {
			grown[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
		}
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = p
	f.n++
}

func (f *procFIFO) pop() *vproc {
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return p
}

// timerHeap orders processes by (wakeAt, wseq). Its elements are pointers,
// which container/heap boxes without allocating.
type timerHeap []*vproc

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].wakeAt != h[j].wakeAt {
		return h[i].wakeAt < h[j].wakeAt
	}
	return h[i].wseq < h[j].wseq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *timerHeap) Push(x any) {
	p := x.(*vproc)
	p.heapIdx = len(*h)
	*h = append(*h, p)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	p.heapIdx = -1
	*h = old[:n-1]
	return p
}
