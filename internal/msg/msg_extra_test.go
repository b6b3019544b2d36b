package msg

import (
	"errors"
	"testing"
	"time"

	"bridge/internal/sim"
)

func TestPortRecvTimeout(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	port := net.NewPort(Addr{Node: 1, Port: "p"})
	err := rt.Run("p", func(p sim.Proc) {
		start := p.Now()
		_, ok, timedOut := port.RecvTimeout(p, 25*time.Millisecond)
		if ok || !timedOut {
			t.Errorf("RecvTimeout = ok=%v timedOut=%v", ok, timedOut)
		}
		if d := p.Now() - start; d != 25*time.Millisecond {
			t.Errorf("waited %v, want 25ms", d)
		}
		// With a message pending, no timeout.
		net.Send(p, 1, port.Addr(), &Message{Body: "x"})
		m, ok, timedOut := port.RecvTimeout(p, 25*time.Millisecond)
		if !ok || timedOut || m.Body != "x" {
			t.Errorf("RecvTimeout with message = %v/%v/%v", m, ok, timedOut)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPortTryRecv(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	port := net.NewPort(Addr{Node: 1, Port: "p"})
	err := rt.Run("p", func(p sim.Proc) {
		if _, ok := port.TryRecv(p); ok {
			t.Error("TryRecv on empty port returned ok")
		}
		net.Send(p, 1, port.Addr(), &Message{Body: 7})
		p.Sleep(2 * time.Millisecond) // let the transfer land
		m, ok := port.TryRecv(p)
		if !ok || m.Body != 7 {
			t.Errorf("TryRecv = %v/%v", m, ok)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestClientOneWaySend(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	sink := net.NewPort(Addr{Node: 2, Port: "sink"})
	rt.Go("recv", func(p sim.Proc) {
		m, ok := sink.Recv(p)
		if !ok || m.ReqID != 0 || m.Body != "fire-and-forget" {
			t.Errorf("one-way = %+v/%v", m, ok)
		}
	})
	rt.Go("send", func(p sim.Proc) {
		c := NewClient(p, net, 1, "cli")
		if err := c.Send(sink.Addr(), "fire-and-forget", 16); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestAwaitBuffersInterleavedReplies(t *testing.T) {
	// Await(id1) while id2's reply arrives first must buffer id2's reply
	// for a later Await.
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	srv := net.NewPort(Addr{Node: 1, Port: "srv"})
	rt.Go("server", func(p sim.Proc) {
		// Reply to requests in reverse order of arrival.
		var reqs []*Message
		for i := 0; i < 2; i++ {
			m, ok := srv.Recv(p)
			if !ok {
				return
			}
			reqs = append(reqs, m)
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			net.Send(p, 1, reqs[i].From, &Message{ReqID: reqs[i].ReqID, Body: reqs[i].Body})
		}
	})
	rt.Go("client", func(p sim.Proc) {
		c := NewClient(p, net, 0, "cli")
		id1, _ := c.Start(srv.Addr(), "one", 8)
		id2, _ := c.Start(srv.Addr(), "two", 8)
		m1, err := c.Await(id1)
		if err != nil || m1.Body != "one" {
			t.Errorf("Await(id1) = %v, %v", m1, err)
		}
		m2, err := c.Await(id2)
		if err != nil || m2.Body != "two" {
			t.Errorf("Await(id2) = %v, %v", m2, err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestTryAwaitTakesOnlyWhatArrived: TryAwait returns a reply only once it
// has arrived; on the way it drops a discarded id's reply and parks another
// request's, charging RecvCPU for exactly the messages it takes off the port.
func TestTryAwaitTakesOnlyWhatArrived(t *testing.T) {
	rt := sim.NewVirtual()
	cfg := DefaultConfig()
	net := NewNetwork(rt, cfg)
	srv := net.NewPort(Addr{Node: 1, Port: "srv"})
	rt.Go("server", func(p sim.Proc) {
		var reqs []*Message
		for i := 0; i < 3; i++ {
			m, ok := srv.Recv(p)
			if !ok {
				return
			}
			reqs = append(reqs, m)
		}
		// c and b answer at once, a after a while.
		for _, i := range []int{2, 1} {
			net.Send(p, 1, reqs[i].From, &Message{ReqID: reqs[i].ReqID, Body: reqs[i].Body})
		}
		p.Sleep(50 * time.Millisecond)
		net.Send(p, 1, reqs[0].From, &Message{ReqID: reqs[0].ReqID, Body: reqs[0].Body})
	})
	rt.Go("client", func(p sim.Proc) {
		c := NewClient(p, net, 0, "cli")
		a, _ := c.Start(srv.Addr(), "a", 8)
		b, _ := c.Start(srv.Addr(), "b", 8)
		cid, _ := c.Start(srv.Addr(), "c", 8)
		c.Discard(cid)
		p.Sleep(20 * time.Millisecond) // b and c have arrived, a has not
		took := func(what string, id uint64, want string, cost time.Duration) {
			t.Helper()
			start := p.Now()
			m, ok := c.TryAwait(id)
			got := ""
			if ok {
				got = m.Body.(string)
			}
			if got != want || p.Now()-start != cost {
				t.Errorf("%s: got %q after %v, want %q after %v", what, got, p.Now()-start, want, cost)
			}
		}
		took("a before it arrived", a, "", 2*cfg.RecvCPU) // drops c, parks b
		if pending, discarded := c.Parked(); pending != 1 || discarded != 0 {
			t.Errorf("after the miss: %d parked, %d discarded ids; want 1, 0", pending, discarded)
		}
		took("b, parked", b, "b", 0)
		took("a again", a, "", 0)
		p.Sleep(100 * time.Millisecond)
		took("a, arrived", a, "a", cfg.RecvCPU)
		if pending, discarded := c.Parked(); pending != 0 || discarded != 0 {
			t.Errorf("at the end: %d parked, %d discarded ids", pending, discarded)
		}
		srv.Close()
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestAwaitTimeoutFindsPendingReply(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	srv := net.NewPort(Addr{Node: 1, Port: "srv"})
	rt.Go("server", func(p sim.Proc) {
		m, ok := srv.Recv(p)
		if !ok {
			return
		}
		net.Send(p, 1, m.From, &Message{ReqID: m.ReqID, Body: "late-buffered"})
	})
	rt.Go("client", func(p sim.Proc) {
		c := NewClient(p, net, 0, "cli")
		id, _ := c.Start(srv.Addr(), "req", 8)
		// First pull the reply into the pending buffer via a bogus
		// Await that times out.
		if _, err := c.AwaitTimeout(999, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Errorf("bogus await = %v, want timeout", err)
		}
		m, err := c.AwaitTimeout(id, time.Millisecond)
		if err != nil || m.Body != "late-buffered" {
			t.Errorf("AwaitTimeout from pending = %v, %v", m, err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestClosedClientAwaitErrors(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	err := rt.Run("p", func(p sim.Proc) {
		c := NewClient(p, net, 0, "cli")
		c.Close()
		if _, err := c.Await(1); !errors.Is(err, ErrClosed) {
			t.Errorf("Await on closed = %v, want ErrClosed", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBandwidthScalesWithSize(t *testing.T) {
	cfg := zeroCPU()
	rt := sim.NewVirtual()
	net := NewNetwork(rt, cfg)
	port := net.NewPort(Addr{Node: 2, Port: "p"})
	err := rt.Run("p", func(p sim.Proc) {
		net.Send(p, 1, port.Addr(), &Message{Size: 1 << 20}) // 1 MiB at 1 MiB/s
		start := p.Now()
		port.Recv(p)
		if d := p.Now() - start; d < time.Second {
			t.Errorf("1 MiB transfer took %v, want >= 1s at 1 MiB/s", d)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
