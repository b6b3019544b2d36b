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
		size := WireSize(req)
		raw = testing.AllocsPerRun(1000, func() {
			if _, err := lc.C.Call(lfsAddr(1), req, size); err != nil {
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

// TestAllocsCommandTable guards what reading the command tables costs a
// request: finding its entry, its span name and the price of its request and
// reply allocate nothing. It skips under the race detector, whose
// instrumentation allocates.
func TestAllocsCommandTable(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var req any = WriteVecReq{FileID: 1, Blocks: []VecWrite{{Data: make([]byte, 64)}}, OpID: 3}
	var resp any = WriteVecResp{Blocks: make([]VecWritten, 1)}
	var name string
	var n int
	for _, tc := range []struct {
		what string
		run  func()
	}{
		{"entry and name", func() { name = nodeCommands.Of(req).Name }},
		{"agent entry", func() { name = agentCommands.Of(TreeResp{}).Name }},
		{"request price", func() { n = WireSize(req) }},
		{"reply price", func() { n = WireSize(resp) }},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got != 0 {
			t.Errorf("%s allocates %v objects, want 0", tc.what, got)
		}
	}
	if name != "unknown" || n != 16 {
		t.Errorf("the tables answered %q, %d", name, n)
	}
}
