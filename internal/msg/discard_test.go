package msg

import (
	"errors"
	"testing"
	"time"

	"bridge/internal/sim"
)

// TestDiscardSetBounded regresses a leak: abandoned correlation ids whose
// replies never arrive (the request or reply was dropped — the common
// reason for abandoning) used to park in the discard set forever, growing
// without bound over long lossy-network runs.
func TestDiscardSetBounded(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	rt.Go("client", func(p sim.Proc) {
		c := NewClient(p, net, 1, "cli")
		defer c.Close()

		// Abandon far more requests than the cap; none ever get a reply.
		for id := uint64(1); id <= 5*discardCap; id++ {
			c.Discard(id)
		}
		if len(c.discard) > discardCap {
			t.Errorf("discard set holds %d entries, cap %d", len(c.discard), discardCap)
		}
		if len(c.discardQ) > 2*discardCap {
			t.Errorf("discard queue holds %d entries, want <= %d", len(c.discardQ), 2*discardCap)
		}
		// Newest entries survive eviction; a late reply to one is still
		// dropped rather than parked in pending.
		newest := uint64(5 * discardCap)
		if _, ok := c.discard[newest]; !ok {
			t.Errorf("newest discarded id %d was evicted before older ones", newest)
		}
		c.park(&Message{ReqID: newest})
		if len(c.pending) != 0 {
			t.Errorf("late reply to a discarded id parked in pending")
		}
		// Entries resolved by replies leave stale queue slots behind; keep
		// discarding and check the queue compacts instead of accumulating.
		for id := uint64(5*discardCap + 1); id <= 20*discardCap; id++ {
			c.Discard(id)
			c.park(&Message{ReqID: id})
		}
		if len(c.discardQ) > 2*discardCap {
			t.Errorf("queue grew to %d entries despite replies resolving them, want <= %d",
				len(c.discardQ), 2*discardCap)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestCallTimeoutStrandsNothing: CallTimeout never shows its caller the
// correlation id, so it must discard a timed-out call itself — otherwise
// every late reply parks in pending for the life of the client. Its users
// (the health monitor's ping, a Bridge client's retried call) time out by
// design.
func TestCallTimeoutStrandsNothing(t *testing.T) {
	rt := sim.NewVirtual()
	net := NewNetwork(rt, zeroCPU())
	srv := net.NewPort(Addr{Node: 1, Port: "slow"})
	rt.Go("server", func(p sim.Proc) {
		Serve(p, net, 1, srv, func(p sim.Proc, req *Message) (any, int) {
			p.Sleep(50 * time.Millisecond) // slower than the caller's deadline
			return req.Body, 8
		})
	})
	rt.Go("client", func(p sim.Proc) {
		defer srv.Close()
		c := NewClient(p, net, 0, "cli")
		defer c.Close()
		const calls = 50
		for i := 0; i < calls; i++ {
			if _, err := c.CallTimeout(srv.Addr(), i, 8, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Errorf("call %d: %v, want ErrTimeout", i, err)
			}
		}
		// Let every late reply arrive; a call that is answered in time
		// receives them all on the way.
		p.Sleep(calls * 100 * time.Millisecond)
		if _, err := c.CallTimeout(srv.Addr(), calls, 8, time.Second); err != nil {
			t.Errorf("last call: %v", err)
		}
		if pending, discarded := c.Parked(); pending != 0 || discarded != 0 {
			t.Errorf("after %d timed-out calls and their late replies: %d parked, %d discarded ids", calls, pending, discarded)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}
