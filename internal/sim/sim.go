package sim

import (
	"errors"
	"time"
)

// Runtime is the substrate every Bridge process runs on. Its one
// implementation is the deterministic virtual-time runtime (NewVirtual): every
// simulated number the repository reports comes from its clock.
type Runtime interface {
	// Go creates a new process. The process starts when the scheduler
	// first selects it. fn must use only runtime primitives to block. The
	// name is used in diagnostics.
	Go(name string, fn func(Proc))

	// NewQueue creates an unbounded message queue. The name is used in
	// deadlock diagnostics.
	NewQueue(name string) Queue

	// Now returns the current simulated time, measured from runtime
	// creation. Safe to call from any goroutine.
	Now() time.Duration

	// Wait blocks until every process has exited, driving the
	// simulation. It returns ErrDeadlock (with
	// diagnostics) if at any point all remaining processes were blocked
	// on queues with no pending timers; when that happens all queues are
	// closed so that well-behaved processes unwind and exit.
	Wait() error

	// Run is Go followed by Wait.
	Run(name string, fn func(Proc)) error

	// Err returns the sticky runtime error (for example a detected
	// deadlock), or nil.
	Err() error
}

// Proc is the handle a process uses to interact with its runtime. A Proc is
// valid only on the goroutine the runtime created for it.
type Proc interface {
	// Name returns the process name given to Go.
	Name() string

	// Now returns the current simulated time.
	Now() time.Duration

	// Sleep suspends the process for d of simulated time. This is also
	// how CPU cost is modeled. Non-positive
	// durations yield without advancing time.
	Sleep(d time.Duration)

	// Go spawns a sibling process on the same runtime.
	Go(name string, fn func(Proc))

	// Runtime returns the runtime this process belongs to.
	Runtime() Runtime
}

// Queue is an unbounded FIFO of messages ordered by availability time.
// Sends never block; receives block until a message is available or the
// queue is closed.
type Queue interface {
	// Name returns the queue name given to NewQueue.
	Name() string

	// Send enqueues v, available immediately. It reports false if the
	// queue is closed (the message is dropped).
	Send(v any) bool

	// SendDelayed enqueues v, available d after the current time. It is
	// how transport latency is modeled: the receiver cannot observe the
	// message before then. Reports false if the queue is closed.
	SendDelayed(v any, d time.Duration) bool

	// Recv blocks until a message is available and returns it. ok is
	// false if the queue was closed and fully drained.
	Recv(p Proc) (v any, ok bool)

	// TryRecv returns a message if one is available now, without
	// blocking. ok reports whether a message was returned; closed
	// reports whether the queue is closed and drained.
	TryRecv(p Proc) (v any, ok bool, closed bool)

	// RecvTimeout is Recv with a deadline of d from now. timedOut
	// reports that the deadline passed first; ok is false on timeout or
	// on close-and-drained.
	RecvTimeout(p Proc, d time.Duration) (v any, ok bool, timedOut bool)

	// Len returns the number of enqueued messages, including ones whose
	// availability time is still in the future.
	Len() int

	// Close closes the queue. Blocked receivers return with ok == false
	// once the queue is drained; subsequent sends are dropped.
	Close()
}

// ErrDeadlock is returned (wrapped, with diagnostics) by Runtime.Wait when
// every remaining process is blocked on a queue and no timer is pending.
var ErrDeadlock = errors.New("sim: deadlock: all processes blocked on queues")
