package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesClock(t *testing.T) {
	rt := NewVirtual()
	var at time.Duration
	err := rt.Run("p", func(p Proc) {
		p.Sleep(15 * time.Millisecond)
		p.Sleep(5 * time.Millisecond)
		at = p.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := 20 * time.Millisecond; at != want {
		t.Errorf("Now after sleeps = %v, want %v", at, want)
	}
	if rt.Now() != at {
		t.Errorf("runtime Now = %v, want %v", rt.Now(), at)
	}
}

func TestVirtualZeroAndNegativeSleep(t *testing.T) {
	rt := NewVirtual()
	err := rt.Run("p", func(p Proc) {
		p.Sleep(0)
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("Now = %v, want 0", p.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestVirtualTimersFireInOrder(t *testing.T) {
	rt := NewVirtual()
	var order []string
	for _, tc := range []struct {
		name string
		d    time.Duration
	}{{"c", 30 * time.Millisecond}, {"a", 10 * time.Millisecond}, {"b", 20 * time.Millisecond}} {
		tc := tc
		rt.Go(tc.name, func(p Proc) {
			p.Sleep(tc.d)
			order = append(order, p.Name())
		})
	}
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Errorf("wake order = %v, want [a b c]", got)
	}
}

func TestVirtualSimultaneousTimersFIFO(t *testing.T) {
	rt := NewVirtual()
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		rt.Go(name, func(p Proc) {
			p.Sleep(time.Millisecond)
			order = append(order, p.Name())
		})
	}
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := fmt.Sprint(order); got != "[p0 p1 p2 p3 p4]" {
		t.Errorf("wake order = %v, want FIFO", got)
	}
}

func TestVirtualQueueBasic(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	var got []int
	rt.Go("recv", func(p Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.Recv(p)
			if !ok {
				t.Errorf("Recv %d: closed", i)
				return
			}
			got = append(got, v.(int))
		}
	})
	rt.Go("send", func(p Proc) {
		for i := 1; i <= 3; i++ {
			q.Send(i)
			p.Sleep(time.Millisecond)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("received %v, want [1 2 3]", got)
	}
}

func TestVirtualQueueDelayedDelivery(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	var recvAt time.Duration
	rt.Go("recv", func(p Proc) {
		if _, ok := q.Recv(p); !ok {
			t.Error("Recv: closed")
		}
		recvAt = p.Now()
	})
	rt.Go("send", func(p Proc) {
		q.SendDelayed("late", 7*time.Millisecond)
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if want := 7 * time.Millisecond; recvAt != want {
		t.Errorf("received at %v, want %v", recvAt, want)
	}
}

func TestVirtualQueueEarlierItemOvertakesLater(t *testing.T) {
	// A receiver sleeping until a future item must be woken early when a
	// sooner-available item arrives from another sender.
	rt := NewVirtual()
	q := rt.NewQueue("q")
	var first any
	var at time.Duration
	rt.Go("slow-sender", func(p Proc) {
		q.SendDelayed("slow", 50*time.Millisecond)
	})
	rt.Go("recv", func(p Proc) {
		v, ok := q.Recv(p)
		if !ok {
			t.Error("Recv: closed")
		}
		first, at = v, p.Now()
		q.Recv(p) // drain the slow one
	})
	rt.Go("fast-sender", func(p Proc) {
		p.Sleep(time.Millisecond)
		q.SendDelayed("fast", 2*time.Millisecond)
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if first != "fast" {
		t.Errorf("first received %v, want fast", first)
	}
	if want := 3 * time.Millisecond; at != want {
		t.Errorf("received at %v, want %v", at, want)
	}
}

func TestVirtualQueueCloseUnblocksReceiver(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	closedSeen := false
	rt.Go("recv", func(p Proc) {
		if _, ok := q.Recv(p); !ok {
			closedSeen = true
		}
	})
	rt.Go("closer", func(p Proc) {
		p.Sleep(time.Millisecond)
		q.Close()
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !closedSeen {
		t.Error("receiver did not observe close")
	}
}

func TestVirtualQueueDrainAfterClose(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	err := rt.Run("p", func(p Proc) {
		q.Send(1)
		q.SendDelayed(2, 5*time.Millisecond)
		q.Close()
		if q.Send(3) {
			t.Error("Send on closed queue reported true")
		}
		if v, ok := q.Recv(p); !ok || v != 1 {
			t.Errorf("first drain = %v/%v, want 1/true", v, ok)
		}
		if v, ok := q.Recv(p); !ok || v != 2 {
			t.Errorf("second drain = %v/%v, want 2/true", v, ok)
		}
		if _, ok := q.Recv(p); ok {
			t.Error("Recv after drain reported ok")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestVirtualRecvTimeout(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	err := rt.Run("p", func(p Proc) {
		start := p.Now()
		_, ok, timedOut := q.RecvTimeout(p, 9*time.Millisecond)
		if ok || !timedOut {
			t.Errorf("RecvTimeout = ok=%v timedOut=%v, want timeout", ok, timedOut)
		}
		if d := p.Now() - start; d != 9*time.Millisecond {
			t.Errorf("timeout took %v, want 9ms", d)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestVirtualRecvTimeoutGetsItemFirst(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	rt.Go("recv", func(p Proc) {
		v, ok, timedOut := q.RecvTimeout(p, 50*time.Millisecond)
		if !ok || timedOut || v != "x" {
			t.Errorf("RecvTimeout = %v/%v/%v, want x/true/false", v, ok, timedOut)
		}
		if p.Now() != 3*time.Millisecond {
			t.Errorf("received at %v, want 3ms", p.Now())
		}
	})
	rt.Go("send", func(p Proc) {
		p.Sleep(3 * time.Millisecond)
		q.Send("x")
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestVirtualRecvTimeoutFutureItemBeyondDeadline(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	err := rt.Run("p", func(p Proc) {
		q.SendDelayed("x", 20*time.Millisecond)
		_, ok, timedOut := q.RecvTimeout(p, 5*time.Millisecond)
		if ok || !timedOut {
			t.Errorf("got ok=%v timedOut=%v, want timeout", ok, timedOut)
		}
		if p.Now() != 5*time.Millisecond {
			t.Errorf("timed out at %v, want 5ms", p.Now())
		}
		// The item is still deliverable afterwards.
		v, ok := q.Recv(p)
		if !ok || v != "x" {
			t.Errorf("Recv after timeout = %v/%v", v, ok)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestVirtualTryRecv(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	err := rt.Run("p", func(p Proc) {
		if _, ok, closed := q.TryRecv(p); ok || closed {
			t.Errorf("TryRecv empty = ok=%v closed=%v", ok, closed)
		}
		q.Send(1)
		q.SendDelayed(2, time.Millisecond)
		if v, ok, _ := q.TryRecv(p); !ok || v != 1 {
			t.Errorf("TryRecv = %v/%v, want 1/true", v, ok)
		}
		// Item 2 is not yet available.
		if _, ok, _ := q.TryRecv(p); ok {
			t.Error("TryRecv returned a future item")
		}
		p.Sleep(time.Millisecond)
		if v, ok, _ := q.TryRecv(p); !ok || v != 2 {
			t.Errorf("TryRecv after sleep = %v/%v, want 2/true", v, ok)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestVirtualDeadlockDetected(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("stuck")
	rt.Go("victim", func(p Proc) {
		if _, ok := q.Recv(p); ok {
			t.Error("Recv returned a value on deadlock")
		}
	})
	err := rt.Wait()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Wait = %v, want ErrDeadlock", err)
	}
	if rt.Err() == nil {
		t.Error("Err() = nil after deadlock")
	}
}

func TestVirtualNoFalseDeadlockOnTimers(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	rt.Go("recv", func(p Proc) {
		q.Recv(p)
	})
	rt.Go("send", func(p Proc) {
		p.Sleep(time.Hour)
		q.Send(1)
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v (timer should prevent deadlock)", err)
	}
}

func TestVirtualSpawnFromProc(t *testing.T) {
	rt := NewVirtual()
	var n atomic.Int32
	err := rt.Run("parent", func(p Proc) {
		done := p.Runtime().NewQueue("done")
		for i := 0; i < 4; i++ {
			p.Go(fmt.Sprintf("child%d", i), func(c Proc) {
				c.Sleep(time.Duration(i+1) * time.Millisecond)
				n.Add(1)
				done.Send(i)
			})
		}
		for i := 0; i < 4; i++ {
			done.Recv(p)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n.Load() != 4 {
		t.Errorf("children run = %d, want 4", n.Load())
	}
}

// TestGoexitReleasesScheduler: a process that ends in runtime.Goexit, as
// t.Fatal inside a process does, still hands the scheduler on, so the
// other processes finish and Wait returns.
func TestGoexitReleasesScheduler(t *testing.T) {
	rt := NewVirtual()
	var at time.Duration
	rt.Go("quitter", func(p Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	rt.Go("sleeper", func(p Proc) {
		p.Sleep(5 * time.Millisecond)
		at = p.Now()
	})
	done := make(chan error, 1)
	go func() { done <- rt.Wait() }()
	// Wait returns within a few goroutine switches. A scheduler left with
	// the exited process active never returns, so yield a bounded number
	// of times instead of blocking the test binary on it.
	for i := 0; ; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if at != 5*time.Millisecond {
				t.Fatalf("sleeper woke at %v, want 5ms", at)
			}
			return
		default:
		}
		if i == 1_000_000 {
			t.Fatal("Wait did not return after a process called runtime.Goexit")
		}
		runtime.Gosched()
	}
}

func TestVirtualDeterminism(t *testing.T) {
	run := func() (time.Duration, string) {
		rt := NewVirtual()
		q := rt.NewQueue("q")
		var log []string
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("w%d", i)
			rt.Go(name, func(p Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(1+(j*7+len(p.Name()))%5) * time.Millisecond)
					q.SendDelayed(p.Name(), 2*time.Millisecond)
				}
			})
		}
		rt.Go("collector", func(p Proc) {
			for i := 0; i < 15; i++ {
				v, _ := q.Recv(p)
				log = append(log, fmt.Sprintf("%v@%v", v, p.Now()))
			}
		})
		if err := rt.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		return rt.Now(), fmt.Sprint(log)
	}
	t1, l1 := run()
	for i := 0; i < 10; i++ {
		t2, l2 := run()
		if t1 != t2 || l1 != l2 {
			t.Fatalf("run %d diverged:\n%v %v\n%v %v", i, t1, l1, t2, l2)
		}
	}
}

func TestVirtualManyProcsStress(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		rt.Go(fmt.Sprintf("p%d", i), func(p Proc) {
			p.Sleep(time.Duration(i%17) * time.Millisecond)
			q.Send(i)
		})
	}
	sum := 0
	rt.Go("sink", func(p Proc) {
		for i := 0; i < n; i++ {
			v, _ := q.Recv(p)
			sum += v.(int)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if want := n * (n - 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}
