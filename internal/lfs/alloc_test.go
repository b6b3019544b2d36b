package lfs

import (
	"testing"

	"bridge/internal/israce"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// TestAllocsLFSClientCall guards the cost of the failure rule: a ReadVec
// through the policy (Start, then a bounded Await) allocates no more than
// msg.Client.Call does for the same body — the bound's timer is a slot in the
// scheduler's heap, not an object. It skips under the race detector, whose
// instrumentation allocates.
func TestAllocsLFSClientCall(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rt := sim.NewVirtual()
	net := msg.NewNetwork(rt, msg.DefaultConfig())
	srv := net.NewPort(lfsAddr(1))
	resp := ReadVecResp{Blocks: []VecRead{{Addr: 7}}}
	rt.Go("server", func(p sim.Proc) {
		msg.Serve(p, net, 1, srv, func(sim.Proc, *msg.Message) (any, int) { return resp, WireSize(resp) })
	})
	var policy, raw float64
	rt.Go("client", func(p sim.Proc) {
		defer srv.Close()
		lc := NewClient(p, net, 0, "cli")
		defer lc.C.Close()
		blocks := []uint32{0}
		req := ReadVecReq{FileID: 1, Blocks: blocks, Hint: -1}
		policy = testing.AllocsPerRun(1000, func() {
			if _, err := lc.ReadVec(1, 1, blocks, -1); err != nil {
				t.Errorf("ReadVec: %v", err)
			}
		})
		raw = testing.AllocsPerRun(1000, func() {
			if _, err := lc.C.Call(lfsAddr(1), req, WireSize(req)); err != nil {
				t.Errorf("Call: %v", err)
			}
		})
	})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if policy > raw {
		t.Errorf("a ReadVec through the policy allocates %v objects, msg.Client.Call %v", policy, raw)
	}
}
