package msg

import (
	"errors"
	"testing"
	"time"

	"bridge/internal/sim"
)

// zeroCPU is a cost model with pure latency and no CPU charges, so timing
// assertions are exact.
func zeroCPU() Config {
	return Config{
		LocalLatency:  1 * time.Millisecond,
		RemoteLatency: 5 * time.Millisecond,
		BytesPerSec:   1 << 20, // 1 MiB/s
		HeaderBytes:   0,
	}
}

func TestSendLocalVsRemoteLatency(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	local := net.NewPort(Addr{Node: 1, Port: "local"})
	remote := net.NewPort(Addr{Node: 2, Port: "remote"})

	rt.Go("recv-local", func(p sim.Proc) {
		if _, ok := local.Recv(p); !ok {
			t.Error("local recv closed")
		}
		if p.Now() != 1*time.Millisecond {
			t.Errorf("local delivery at %v, want 1ms", p.Now())
		}
	})
	rt.Go("recv-remote", func(p sim.Proc) {
		if _, ok := remote.Recv(p); !ok {
			t.Error("remote recv closed")
		}
		// 5ms base + 1 MiB/s over 1024 bytes = ~0.9766ms.
		want := 5*time.Millisecond + time.Duration(1024*int64(time.Second)/(1<<20))
		if p.Now() != want {
			t.Errorf("remote delivery at %v, want %v", p.Now(), want)
		}
	})
	rt.Go("send", func(p sim.Proc) {
		if err := net.Send(p, 1, local.Addr(), &Message{Size: 1024}); err != nil {
			t.Errorf("local send: %v", err)
		}
		if err := net.Send(p, 1, remote.Addr(), &Message{Size: 1024}); err != nil {
			t.Errorf("remote send: %v", err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestSendUnknownPort(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	err := rt.Run("p", func(p sim.Proc) {
		err := net.Send(p, 0, Addr{Node: 9, Port: "nope"}, &Message{})
		if !errors.Is(err, ErrNoPort) {
			t.Errorf("Send = %v, want ErrNoPort", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSendCPUCharged(t *testing.T) {
	cfg := zeroCPU()
	cfg.SendCPU = 2 * time.Millisecond
	cfg.RecvCPU = 3 * time.Millisecond
	rt := sim.NewVirtual()
	net := NewNetwork(rt, cfg)
	port := net.NewPort(Addr{Node: 1, Port: "p"})
	rt.Go("recv", func(p sim.Proc) {
		port.Recv(p)
		// local latency 1ms; message sent at 2ms (after SendCPU);
		// arrival 3ms; RecvCPU 3ms -> 6ms.
		if p.Now() != 6*time.Millisecond {
			t.Errorf("recv done at %v, want 6ms", p.Now())
		}
	})
	rt.Go("send", func(p sim.Proc) {
		net.Send(p, 1, port.Addr(), &Message{})
		if p.Now() != 2*time.Millisecond {
			t.Errorf("send returned at %v, want 2ms", p.Now())
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestCallRoundTrip(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	srvPort := net.NewPort(Addr{Node: 0, Port: "echo"})
	rt.Go("server", func(p sim.Proc) {
		Serve(p, net, 0, srvPort, func(proc sim.Proc, req *Message) (any, int) {
			return "echo:" + req.Body.(string), 64
		})
	})
	rt.Go("client", func(p sim.Proc) {
		defer srvPort.Close()
		c := NewClient(p, net, 3, "cli")
		m, err := c.Call(srvPort.Addr(), "hi", 16)
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		if m.Body != "echo:hi" {
			t.Errorf("reply = %v, want echo:hi", m.Body)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestStartGatherOverlapped(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	// Three servers with different response delays; replies arrive out of
	// order but are awaited in request order.
	delays := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	addrs := make([]Addr, len(delays))
	for i, d := range delays {
		d := d
		port := net.NewPort(Addr{Node: NodeID(i + 1), Port: "srv"})
		addrs[i] = port.Addr()
		rt.Go("server", func(p sim.Proc) {
			req, ok := port.Recv(p)
			if !ok {
				return
			}
			p.Sleep(d)
			net.Send(p, port.Addr().Node, req.From, &Message{ReqID: req.ReqID, Body: int(d / time.Millisecond)})
		})
	}
	rt.Go("client", func(p sim.Proc) {
		c := NewClient(p, net, 0, "cli")
		ids := make([]uint64, len(addrs))
		for i, a := range addrs {
			id, err := c.Start(a, i, 8)
			if err != nil {
				t.Errorf("Start: %v", err)
				return
			}
			ids[i] = id
		}
		want := []int{30, 10, 20}
		for i, id := range ids {
			m, err := c.Await(id)
			if err != nil {
				t.Errorf("Await: %v", err)
				return
			}
			if m.Body != want[i] {
				t.Errorf("reply %d = %v, want %v", i, m.Body, want[i])
			}
		}
		// Total elapsed should be bounded by the max delay (overlapped),
		// not the sum (sequential).
		if p.Now() > 45*time.Millisecond {
			t.Errorf("gather took %v; requests were not overlapped", p.Now())
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestCallTimeoutOnDeadServer(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	dead := net.NewPort(Addr{Node: 5, Port: "lfs"})
	dead.Close() // node failure: port exists but drops everything
	err := rt.Run("client", func(p sim.Proc) {
		c := NewClient(p, net, 0, "cli")
		_, err := c.CallTimeout(dead.Addr(), "req", 8, 50*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("CallTimeout = %v, want ErrTimeout", err)
		}
		if p.Now() < 50*time.Millisecond {
			t.Errorf("timed out at %v, want >= 50ms", p.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestReplyHelper(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	srvPort := net.NewPort(Addr{Node: 0, Port: "srv"})
	rt.Go("server", func(p sim.Proc) {
		sc := NewClient(p, net, 0, "srv-cli")
		req, ok := srvPort.Recv(p)
		if !ok {
			return
		}
		if err := sc.Reply(req, "pong", 8); err != nil {
			t.Errorf("Reply: %v", err)
		}
	})
	rt.Go("client", func(p sim.Proc) {
		c := NewClient(p, net, 1, "cli")
		m, err := c.Call(srvPort.Addr(), "ping", 8)
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		if m.Body != "pong" {
			t.Errorf("reply = %v, want pong", m.Body)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestNetworkStats(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	a := net.NewPort(Addr{Node: 1, Port: "a"})
	b := net.NewPort(Addr{Node: 2, Port: "b"})
	err := rt.Run("p", func(p sim.Proc) {
		net.Send(p, 1, a.Addr(), &Message{Size: 100}) // local
		net.Send(p, 1, b.Addr(), &Message{Size: 100}) // remote
		a.Recv(p)
		b.Recv(p)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := net.Stats()
	if got := s.Get("msg.sent"); got != 2 {
		t.Errorf("msg.sent = %d, want 2", got)
	}
	if got := s.Get("msg.local"); got != 1 {
		t.Errorf("msg.local = %d, want 1", got)
	}
	if got := s.Get("msg.remote"); got != 1 {
		t.Errorf("msg.remote = %d, want 1", got)
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate port")
		}
	}()
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	net.NewPort(Addr{Node: 0, Port: "x"})
	net.NewPort(Addr{Node: 0, Port: "x"})
}

// A closed port's address may be opened again; each new port counts the
// ports that held the address before it, and other addresses start at 0.
func TestReopenedPortCountsIncarnations(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	a := Addr{Node: 0, Port: "x"}
	for want := uint64(0); want < 3; want++ {
		p := net.NewPort(a)
		if got := p.Incarnation(); got != want {
			t.Errorf("port %d at %v: incarnation %d", want, a, got)
		}
		p.Close()
	}
	if got := net.NewPort(Addr{Node: 1, Port: "x"}).Incarnation(); got != 0 {
		t.Errorf("a fresh address: incarnation %d, want 0", got)
	}
}
