package lfs

import (
	"testing"

	"bridge/internal/disk"
	"bridge/internal/efs"
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

// TestAllocsAppendRunVec guards the node's half of a WriteVec append run:
// beyond what efs.AppendRun allocates for the same run, the node makes only
// the reply — the per-block head and data lists are its own scratch, and it
// empties them after the run so it pins no payload. It skips under the race
// detector, whose instrumentation allocates.
func TestAllocsAppendRunVec(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs, k = 20, 8
	rt, net, nodes := testCluster(1, Config{DiskBlocks: 1024, Timing: disk.FixedTiming{}, EFS: efs.Options{CacheBlocks: 32}})
	n := nodes[0]
	rt.Go("client", func(p sim.Proc) {
		defer stopAll(nodes)
		lc := NewClient(p, net, 0, "cli")
		defer lc.C.Close()
		// Warm the volume: every block the runs take already has a device
		// image, and every cache slot owns its buffer.
		warm := make([]VecWrite, 2*(runs+1)*k+64)
		for i := range warm {
			warm[i] = VecWrite{BlockNum: uint32(i), Data: make([]byte, 40)}
		}
		for _, id := range []uint32{1, 2, 99} {
			if err := lc.Create(1, id); err != nil {
				t.Errorf("Create %d: %v", id, err)
				return
			}
		}
		if _, err := lc.WriteVec(1, 99, warm, -1); err != nil {
			t.Errorf("warm-up WriteVec: %v", err)
			return
		}
		if _, err := n.fs.DeleteFast(p, 99); err != nil {
			t.Errorf("DeleteFast: %v", err)
			return
		}

		datas := make([][]byte, k)
		req := WriteVecReq{FileID: 2, Blocks: make([]VecWrite, k)}
		for i := range req.Blocks {
			datas[i] = make([]byte, 40)
			req.Blocks[i] = VecWrite{Head: Head{Len: HeadBytes}, Data: datas[i]}
		}
		var at1, at2 uint32
		bare := testing.AllocsPerRun(runs, func() {
			if _, err := n.fs.AppendRun(p, 1, at1, nil, datas); err != nil {
				t.Errorf("AppendRun: %v", err)
			}
			at1 += k
		})
		vec := testing.AllocsPerRun(runs, func() {
			for i := range req.Blocks {
				req.Blocks[i].BlockNum = at2 + uint32(i)
			}
			if resp, ran := n.appendRunVec(p, req); !ran || !resp.Blocks[0].OK() {
				t.Errorf("appendRunVec ran %v: %+v", ran, resp)
			}
			at2 += k
		})
		if vec > bare+1 {
			t.Errorf("a %d-block WriteVec append run allocates %v objects, AppendRun alone %v: want at most one more (the reply)", k, vec, bare)
		}
		for _, s := range [][][]byte{n.runHeads, n.runDatas} {
			for i, b := range s[:cap(s)] {
				if b != nil {
					t.Errorf("after the run the node still holds block %d's %d bytes", i, len(b))
				}
			}
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}
