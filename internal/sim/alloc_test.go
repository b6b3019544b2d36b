package sim

import (
	"testing"
	"time"

	"bridge/internal/israce"
)

// Allocation guards: the scheduler's steady state allocates nothing. They
// measure from inside a virtual process (AllocsPerRun counts the whole
// program's mallocs, so the peer process is included) and skip under the
// race detector, whose instrumentation allocates.

func TestAllocsQueueRoundTrip(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := NewVirtual()
	ping, pong := rt.NewQueue("ping"), rt.NewQueue("pong")
	rt.Go("echo", func(p Proc) {
		for {
			v, ok := ping.Recv(p)
			if !ok {
				return
			}
			pong.SendDelayed(v, time.Microsecond)
		}
	})
	var allocs float64
	rt.Go("driver", func(p Proc) {
		var v any = "ball" // boxed once, outside the measured loop
		allocs = testing.AllocsPerRun(1000, func() {
			ping.Send(v)
			pong.Recv(p)
		})
		ping.Close()
	})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a queue round trip between two processes allocates %v objects, want 0", allocs)
	}
}

func TestAllocsSleep(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, second := range []bool{false, true} {
		rt := NewVirtual()
		done := false
		if second {
			// A second sleeper always has a timer due first, so every
			// measured Sleep goes through the heap and the ready list.
			rt.Go("metronome", func(p Proc) {
				for !done {
					p.Sleep(time.Millisecond)
				}
			})
		}
		var allocs float64
		rt.Go("sleeper", func(p Proc) {
			allocs = testing.AllocsPerRun(1000, func() { p.Sleep(3 * time.Millisecond) })
			done = true
		})
		if err := rt.Wait(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("Sleep (second sleeper: %v) allocates %v objects, want 0", second, allocs)
		}
	}
}
