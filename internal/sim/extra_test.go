package sim

import (
	"testing"
	"time"
)

func TestVirtualGoAfterIdleRestartsScheduler(t *testing.T) {
	// A process created from outside after the simulation drained must
	// still run when Wait is called again.
	rt := NewVirtual()
	ran1 := false
	if err := rt.Run("first", func(p Proc) { ran1 = true }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ran2 := false
	rt.Go("second", func(p Proc) {
		p.Sleep(time.Millisecond)
		ran2 = true
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("second Wait: %v", err)
	}
	if !ran1 || !ran2 {
		t.Errorf("ran1=%v ran2=%v", ran1, ran2)
	}
}

func TestQueueDoubleCloseAndLen(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	err := rt.Run("p", func(p Proc) {
		q.Send(1)
		q.SendDelayed(2, time.Second)
		if q.Len() != 2 {
			t.Errorf("Len = %d, want 2 (future items count)", q.Len())
		}
		q.Close()
		q.Close() // idempotent
		if q.Send(3) {
			t.Error("send after double close succeeded")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRecvTimeoutZeroActsLikeTry(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	err := rt.Run("p", func(p Proc) {
		start := p.Now()
		_, ok, timedOut := q.RecvTimeout(p, 0)
		if ok || !timedOut {
			t.Errorf("RecvTimeout(0) = %v/%v", ok, timedOut)
		}
		if p.Now() != start {
			t.Errorf("RecvTimeout(0) advanced time by %v", p.Now()-start)
		}
		q.Send("x")
		v, ok, timedOut := q.RecvTimeout(p, 0)
		if !ok || timedOut || v != "x" {
			t.Errorf("RecvTimeout(0) with item = %v/%v/%v", v, ok, timedOut)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNegativeDelaySendIsImmediate(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("q")
	err := rt.Run("p", func(p Proc) {
		q.SendDelayed("x", -time.Second)
		v, ok, _ := q.TryRecv(p)
		if !ok || v != "x" {
			t.Errorf("negative-delay item not immediately available: %v/%v", v, ok)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRuntimeNowFromOutside(t *testing.T) {
	rt := NewVirtual()
	if rt.Now() != 0 {
		t.Errorf("initial Now = %v", rt.Now())
	}
	rt.Run("p", func(p Proc) { p.Sleep(42 * time.Millisecond) })
	if rt.Now() != 42*time.Millisecond {
		t.Errorf("final Now = %v, want 42ms", rt.Now())
	}
	if rt.Err() != nil {
		t.Errorf("Err = %v", rt.Err())
	}
}

func TestDeadlockDiagnosticsNameQueue(t *testing.T) {
	rt := NewVirtual()
	q := rt.NewQueue("the-culprit")
	rt.Go("victim-proc", func(p Proc) { q.Recv(p) })
	err := rt.Wait()
	if err == nil {
		t.Fatal("no deadlock error")
	}
	for _, want := range []string{"the-culprit", "victim-proc"} {
		if !contains(err.Error(), want) {
			t.Errorf("diagnostics %q missing %q", err.Error(), want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestWaitIdempotentAfterDrain(t *testing.T) {
	rt := NewVirtual()
	rt.Run("p", func(p Proc) {})
	if err := rt.Wait(); err != nil {
		t.Errorf("second Wait = %v", err)
	}
}
