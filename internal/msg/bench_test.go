package msg

import (
	"sort"
	"testing"

	"bridge/internal/sim"
)

// BenchmarkRPCRoundTrip measures the host-side cost of one Call through
// the cost-modeled network (two messages, correlation, CPU charges).
func BenchmarkRPCRoundTrip(b *testing.B) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, DefaultConfig())
	srv := net.NewPort(Addr{Node: 1, Port: "srv"})
	n := b.N
	rt.Go("server", func(p sim.Proc) {
		Serve(p, net, 1, srv, func(proc sim.Proc, req *Message) (any, int) {
			return req.Body, 8
		})
	})
	rt.Go("client", func(p sim.Proc) {
		defer srv.Close()
		c := NewClient(p, net, 0, "cli")
		for i := 0; i < n; i++ {
			if _, err := c.Call(srv.Addr(), i, 8); err != nil {
				b.Errorf("Call: %v", err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := rt.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScatterGather measures overlapped fan-out to 8 servers.
func BenchmarkScatterGather(b *testing.B) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, DefaultConfig())
	const fan = 8
	addrs := make([]Addr, fan)
	for i := 0; i < fan; i++ {
		port := net.NewPort(Addr{Node: NodeID(i + 1), Port: "srv"})
		addrs[i] = port.Addr()
		i := i
		rt.Go("server", func(p sim.Proc) {
			Serve(p, net, NodeID(i+1), port, func(proc sim.Proc, req *Message) (any, int) {
				return req.Body, 8
			})
		})
	}
	n := b.N
	rt.Go("client", func(p sim.Proc) {
		c := NewClient(p, net, 0, "cli")
		for i := 0; i < n; i++ {
			ids := make([]uint64, fan)
			for j, a := range addrs {
				id, err := c.Start(a, j, 8)
				if err != nil {
					b.Errorf("Start: %v", err)
					return
				}
				ids[j] = id
			}
			for _, id := range ids {
				if _, err := c.Await(id); err != nil {
					b.Errorf("Await: %v", err)
					return
				}
			}
		}
		for _, a := range addrs {
			_ = a
		}
		// Close all server ports so they exit, in address order: close
		// order decides the order their processes unblock.
		net.mu.Lock()
		ports := make([]*Port, 0, len(net.ports))
		for _, pt := range net.ports {
			ports = append(ports, pt)
		}
		net.mu.Unlock()
		sort.Slice(ports, func(i, j int) bool { return ports[i].Addr().String() < ports[j].Addr().String() })
		for _, pt := range ports {
			if pt.Addr().Port == "srv" {
				pt.Close()
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := rt.Wait(); err != nil {
		b.Fatal(err)
	}
}
