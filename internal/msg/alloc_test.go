package msg

import (
	"testing"

	"bridge/internal/israce"
	"bridge/internal/sim"
)

// TestAllocsRPCRoundTrip guards the message path's allocation budget: a
// Call answered by a Serve loop costs the request Message, the reply
// Message and the boxing of the request body — nothing in the queues, the
// scheduler or the network's bookkeeping. It skips under the race detector,
// whose instrumentation allocates.
func TestAllocsRPCRoundTrip(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := sim.NewVirtual()
	net := NewNetwork(rt, DefaultConfig())
	srv := net.NewPort(Addr{Node: 1, Port: "srv"})
	rt.Go("server", func(p sim.Proc) {
		Serve(p, net, 1, srv, func(_ sim.Proc, req *Message) (any, int) { return req.Body, 8 })
	})
	var allocs float64
	rt.Go("client", func(p sim.Proc) {
		defer srv.Close()
		c := NewClient(p, net, 0, "cli")
		defer c.Close()
		i := 1 << 20 // past the runtime's preboxed small integers
		allocs = testing.AllocsPerRun(1000, func() {
			i++
			if _, err := c.Call(srv.Addr(), i, 8); err != nil {
				t.Errorf("Call: %v", err)
			}
		})
	})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs > 3 {
		t.Errorf("a Call+Serve round trip allocates %v objects, want at most 3", allocs)
	}
}

// TestAllocsTryAwaitMiss: polling for a reply still in transit is free — no
// virtual time and no allocation — so a server can poll between requests as
// often as it likes. (Polling with AwaitTimeout(id, 0) allocates its
// ErrTimeout every miss.)
func TestAllocsTryAwaitMiss(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := sim.NewVirtual()
	net := NewNetwork(rt, DefaultConfig())
	srv := net.NewPort(Addr{Node: 1, Port: "srv"})
	rt.Go("client", func(p sim.Proc) {
		defer srv.Close()
		c := NewClient(p, net, 0, "cli")
		defer c.Close()
		id, err := c.Start(srv.Addr(), 1, 8) // never answered
		if err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		start := p.Now()
		allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := c.TryAwait(id); ok {
				t.Error("TryAwait found a reply nobody sent")
			}
		})
		if allocs != 0 || p.Now() != start {
			t.Errorf("a TryAwait miss allocates %v objects and takes %v, want 0 and 0", allocs, p.Now()-start)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}
