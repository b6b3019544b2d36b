package lfs

import (
	"bytes"
	"testing"

	"bridge/internal/disk"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// TestWriteDedupKindMismatch regresses a panic: the dedup cache keys on
// (client, OpID) across both write kinds, so if a client's op counter ever
// restarts (server restart) while the node keeps its cache, a WriteReq can
// land on a cached WriteVecResp — which must be re-executed, not replayed
// into the caller's type assertion. Both directions are covered; deduped
// reads the cache as the handler's own reply type, which is what makes a
// cross-kind hit a miss.
func TestWriteDedupKindMismatch(t *testing.T) {
	rt, net, nodes := testCluster(1, Config{DiskBlocks: 512, Timing: disk.FixedTiming{}})
	rt.Go("client", func(p sim.Proc) {
		defer stopAll(nodes)
		mc := msg.NewClient(p, net, 0, "cli")
		defer mc.Close()
		addr := nodes[0].Addr()

		m, err := mc.Call(addr, CreateReq{FileID: 7}, WireSize(CreateReq{FileID: 7}))
		if err != nil || Err(m.Body.(CreateResp).Status) != nil {
			t.Errorf("Create: %v / %v", err, m)
			return
		}
		// A vectored write caches a WriteVecResp under (cli, op 1).
		vreq := WriteVecReq{FileID: 7, Blocks: []VecWrite{{BlockNum: 0, Data: []byte("vec-block")}}, Hint: -1, OpID: 1}
		m, err = mc.Call(addr, vreq, WireSize(vreq))
		if err != nil {
			t.Errorf("WriteVec: %v", err)
			return
		}
		if vr := m.Body.(WriteVecResp); Err(vr.Status) != nil || Err(vr.Blocks[0].Status) != nil {
			t.Errorf("WriteVec status: %+v", vr)
			return
		}
		// A scalar write reusing op 1 must execute and answer WriteResp,
		// not replay the cached WriteVecResp.
		wreq := WriteReq{FileID: 7, BlockNum: 1, Data: []byte("scalar-block"), Hint: -1, OpID: 1}
		m, err = mc.Call(addr, wreq, WireSize(wreq))
		if err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		wr, ok := m.Body.(WriteResp)
		if !ok {
			t.Errorf("scalar write on vec-cached op replied %T, want WriteResp", m.Body)
			return
		}
		if Err(wr.Status) != nil {
			t.Errorf("scalar write status: %v", Err(wr.Status))
			return
		}
		// And the converse: a vectored write reusing a scalar-cached op.
		wreq = WriteReq{FileID: 7, BlockNum: 2, Data: []byte("scalar-2"), Hint: -1, OpID: 2}
		m, err = mc.Call(addr, wreq, WireSize(wreq))
		if err != nil || Err(m.Body.(WriteResp).Status) != nil {
			t.Errorf("Write op 2: %v / %v", err, m)
			return
		}
		vreq = WriteVecReq{FileID: 7, Blocks: []VecWrite{{BlockNum: 3, Data: []byte("vec-2")}}, Hint: -1, OpID: 2}
		m, err = mc.Call(addr, vreq, WireSize(vreq))
		if err != nil {
			t.Errorf("WriteVec op 2: %v", err)
			return
		}
		vr, ok := m.Body.(WriteVecResp)
		if !ok {
			t.Errorf("vec write on scalar-cached op replied %T, want WriteVecResp", m.Body)
			return
		}
		if Err(vr.Status) != nil || Err(vr.Blocks[0].Status) != nil {
			t.Errorf("vec write op 2 status: %+v", vr)
			return
		}
		// All four writes actually landed.
		want := [][]byte{[]byte("vec-block"), []byte("scalar-block"), []byte("scalar-2"), []byte("vec-2")}
		for bn, w := range want {
			rreq := ReadReq{FileID: 7, BlockNum: uint32(bn), Hint: -1}
			m, err = mc.Call(addr, rreq, WireSize(rreq))
			if err != nil {
				t.Errorf("Read %d: %v", bn, err)
				return
			}
			rr := m.Body.(ReadResp)
			if Err(rr.Status) != nil || !bytes.Equal(rr.Data, w) {
				t.Errorf("block %d = %q (%v), want %q", bn, rr.Data, Err(rr.Status), w)
			}
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}
