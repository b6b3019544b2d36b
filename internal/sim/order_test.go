package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The ordering contract (DESIGN.md "Simulator ordering contract"): events on
// one instant run in registration order, whichever path Sleep takes.

// TestSameInstantRunsInRegistrationOrder lands a timer, a queue item and a
// second timer on t=10ms. c's first Sleep has nothing ready and no timer due
// before it, so it takes the in-place path; its second Sleep ties with a's
// earlier-registered timer and must queue behind it. With d in the mix a
// timer is due before c's first wake-up, so that Sleep goes through the
// scheduler too. The log must not depend on any of that.
func TestSameInstantRunsInRegistrationOrder(t *testing.T) {
	for _, tc := range []struct {
		secondSleeper bool
		want          []string
	}{
		{false, []string{"c@4ms", "a@10ms", "b@10ms got x", "c@10ms"}},
		{true, []string{"d@3ms", "c@4ms", "a@10ms", "b@10ms got x", "c@10ms"}},
	} {
		for _, slow := range []bool{false, true} {
			rt := NewVirtual().(*vRuntime)
			rt.slowSleep = slow
			q := rt.NewQueue("q")
			var log []string
			note := func(p Proc, extra string) { log = append(log, fmt.Sprintf("%s@%v%s", p.Name(), p.Now(), extra)) }
			rt.Go("a", func(p Proc) {
				q.SendDelayed("x", 10*time.Millisecond)
				p.Sleep(10 * time.Millisecond)
				note(p, "")
			})
			rt.Go("b", func(p Proc) {
				v, _ := q.Recv(p)
				note(p, fmt.Sprintf(" got %v", v))
			})
			if tc.secondSleeper {
				rt.Go("d", func(p Proc) {
					p.Sleep(3 * time.Millisecond)
					note(p, "")
				})
			}
			rt.Go("c", func(p Proc) {
				p.Sleep(4 * time.Millisecond)
				note(p, "")
				p.Sleep(6 * time.Millisecond)
				note(p, "")
			})
			if err := rt.Wait(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(log, tc.want) {
				t.Errorf("second sleeper %v, slow path forced %v:\n got %v\nwant %v", tc.secondSleeper, slow, log, tc.want)
			}
		}
	}
}

// randomProgram runs a seeded mix of sleeps (durations drawn from a handful
// of values, so ties are the rule), immediate and delayed sends, timed and
// non-blocking receives and closes across several processes and queues, and
// returns the (now, proc, event) log plus the sequence numbers consumed.
// Every process draws from its own generator, so its script does not depend
// on the interleaving it is meant to expose.
func randomProgram(seed int64, slowSleep bool) ([]string, uint64, error) {
	const procs, queues, steps = 6, 3, 120
	ticks := []time.Duration{0, time.Millisecond, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	rt := NewVirtual().(*vRuntime)
	rt.slowSleep = slowSleep
	qs := make([]Queue, queues)
	for i := range qs {
		qs[i] = rt.NewQueue(fmt.Sprintf("q%d", i))
	}
	var log []string
	for i := 0; i < procs; i++ {
		rng := rand.New(rand.NewSource(seed*131 + int64(i)))
		rt.Go(fmt.Sprintf("p%d", i), func(p Proc) {
			note := func(format string, args ...any) {
				log = append(log, fmt.Sprintf("%v %s ", p.Now(), p.Name())+fmt.Sprintf(format, args...))
			}
			for s := 0; s < steps; s++ {
				qi := rng.Intn(queues)
				q, d := qs[qi], ticks[rng.Intn(len(ticks))]
				switch op := rng.Intn(16); {
				case op < 6:
					p.Sleep(d)
					note("slept %v", d)
				case op < 8:
					note("send q%d %v", qi, q.Send(s))
				case op < 11:
					note("send q%d +%v %v", qi, d, q.SendDelayed(s, d))
				case op < 14:
					v, ok, timedOut := q.RecvTimeout(p, d)
					note("recv q%d %v: %v %v %v", qi, d, v, ok, timedOut)
				case op < 15:
					v, ok, closed := q.TryRecv(p)
					note("try q%d: %v %v %v", qi, v, ok, closed)
				default:
					if rng.Intn(8) == 0 {
						q.Close()
						note("close q%d", qi)
					}
				}
			}
		})
	}
	err := rt.Wait()
	return log, rt.seq, err
}

// TestSleepFastPathEquivalence holds Sleep's in-place clock advance to the
// scheduler it shortcuts: the same seeded program must log the same events
// at the same times in the same order, and consume the same sequence
// numbers, with the shortcut disabled.
func TestSleepFastPathEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		fast, fastSeq, err := randomProgram(seed, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		slow, slowSeq, err := randomProgram(seed, true)
		if err != nil {
			t.Fatalf("seed %d, slow path: %v", seed, err)
		}
		if fastSeq != slowSeq {
			t.Errorf("seed %d: fast path consumed %d sequence numbers, scheduler path %d", seed, fastSeq, slowSeq)
		}
		if len(fast) != len(slow) {
			t.Fatalf("seed %d: %d events with the fast path, %d without", seed, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("seed %d: event %d differs:\n fast %s\n slow %s", seed, i, fast[i], slow[i])
			}
		}
	}
}

// TestClosedQueuesLeaveTheRuntime: a closed queue has no waiters and can
// gain none without a timer, so the runtime forgets it; per-call reply ports
// used to accumulate for the runtime's lifetime. The survivors keep their
// creation order, which deadlock unwinding and its report walk.
func TestClosedQueuesLeaveTheRuntime(t *testing.T) {
	rt := NewVirtual().(*vRuntime)
	first := rt.NewQueue("first")
	for i := 0; i < 10000; i++ {
		rt.NewQueue("reply").Close()
	}
	second := rt.NewQueue("second")
	mid := rt.NewQueue("mid")
	third := rt.NewQueue("third")
	mid.Close()
	mid.Close() // closing twice is still harmless
	if len(rt.queues) != 3 || rt.queues[0] != first || rt.queues[1] != second || rt.queues[2] != third {
		t.Fatalf("runtime tracks %d queues after 10001 closes, want [first second third] in order", len(rt.queues))
	}
	if tail := rt.queues[:cap(rt.queues)][len(rt.queues)]; tail != nil {
		t.Error("vacated rt.queues slot still holds the closed queue")
	}
}

// TestSchedulerListsDropWhatTheyPop: the ready ring and the waiter lists nil
// the slots they vacate, so a finished process is not kept reachable by the
// storage that once queued it.
func TestSchedulerListsDropWhatTheyPop(t *testing.T) {
	rt := NewVirtual().(*vRuntime)
	q := rt.NewQueue("q").(*vQueue)
	for i := 0; i < 5; i++ {
		rt.Go("recv", func(p Proc) {
			q.RecvTimeout(p, time.Duration(i+1)*time.Millisecond) // leaves by timeout: removeWaiter
			q.Recv(p)                                             // leaves by item: wakeOneLocked
		})
	}
	rt.Go("send", func(p Proc) {
		p.Sleep(10 * time.Millisecond)
		for i := 0; i < 5; i++ {
			q.Send(i)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, p := range rt.ready.buf {
		if p != nil {
			t.Errorf("ready ring slot %d still holds %s", i, p.name)
		}
	}
	for i, p := range q.waiters[:cap(q.waiters)] {
		if p != nil {
			t.Errorf("waiter slot %d of %s still holds %s", i, q.name, p.name)
		}
	}
}
