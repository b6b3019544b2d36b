// Package sim is the execution substrate for the Bridge file system: a
// process runtime with message queues and a clock, playing the role that the
// Chrysalis operating system and its atomic queues played for the original
// Bridge prototype on the BBN Butterfly.
//
// All Bridge components — the Bridge Server, the local file systems, tool
// workers — run as sim processes that communicate only through sim queues
// and consume time only through Proc.Sleep. There is one clock: NewVirtual
// returns a runtime with a discrete-event virtual clock, and every simulated
// number the repository reports comes from it. Exactly one process executes
// at a time; when the running process blocks (on a queue or a sleep), the
// scheduler picks the next ready process, and when no process is ready it
// advances the clock to the earliest pending timer. Simulated hours complete
// in host milliseconds, results are bit-for-bit deterministic, and a global
// deadlock is detected and reported instead of hanging. No file in this
// package reads the host clock (bridgevet's simdeterminism checks all of it).
//
// Rules for process code: a process may block only in runtime primitives
// (Proc.Sleep, Queue.Recv, Queue.RecvTimeout). Computing is free in virtual
// time; model CPU cost explicitly with Proc.Sleep. Recv and Sleep must only
// be called with the Proc that is currently executing; external goroutines
// may only create processes before Wait.
package sim
