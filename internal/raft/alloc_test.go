//go:build !race

package raft

import (
	"math"
	"runtime"
	"testing"
)

// Allocation guards. The file is left out under the race detector, whose
// instrumentation allocates.

// steadyLeader elects a leader in a three-node MemStore group and returns
// its steady cycle: propose, flush to the followers, their acks, the
// commit, TakeCommitted everywhere, and a compaction back to retained
// entries.
func steadyLeader(t *testing.T, retained uint64) (h *harness, cycle func()) {
	h = newHarness(t, 3)
	lead := h.waitLeader(400)
	entry, snap := make([]byte, 64), make([]byte, 256)
	cycle = func() {
		if _, _, ok := h.nodes[lead].Propose(entry, h.now); !ok {
			t.Fatal("leader refused a proposal")
		}
		h.run(3)
		for _, n := range h.nodes {
			n.TakeCommitted()
			if st := n.Status(); st.LastIndex > st.SnapIndex+retained {
				n.Compact(min(st.Commit, st.LastIndex-retained), snap)
			}
		}
	}
	for i := uint64(0); i < 2*retained+8; i++ {
		cycle()
	}
	if st := h.nodes[lead].Status(); st.LastIndex-st.SnapIndex != retained {
		t.Fatalf("the leader retains %d entries, want %d", st.LastIndex-st.SnapIndex, retained)
	}
	return h, cycle
}

// cycleCost is the objects and bytes one cycle allocates: the least mean
// of five batches, since whatever else the runtime allocates meanwhile
// only adds.
func cycleCost(cycle func()) (objs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const batches, runs = 5, 100
	objs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for b := 0; b < batches; b++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		objs = min(objs, (after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return objs, bytes
}

// TestAllocsRaftFlush: a Flush saves its log edit, not a copy of the log,
// so a steady leader's cycle allocates the same objects and bytes whether
// the log retains 1 entry or 47.
func TestAllocsRaftFlush(t *testing.T) {
	_, short := steadyLeader(t, 1)
	_, long := steadyLeader(t, 47)
	so, sb := cycleCost(short)
	lo, lb := cycleCost(long)
	if so != lo || sb != lb {
		t.Errorf("a cycle allocates %v objects / %v bytes with 1 retained entry and %v / %v with 47", so, sb, lo, lb)
	}
}

// TestAllocsLeaseExpiry: the lease check runs on every leader read and
// tick, and allocates nothing.
func TestAllocsLeaseExpiry(t *testing.T) {
	h, _ := steadyLeader(t, 1)
	n := h.nodes[h.leader()]
	if allocs := testing.AllocsPerRun(100, func() { n.LeaseValid(h.now) }); allocs != 0 {
		t.Errorf("LeaseValid allocates %v objects, want 0", allocs)
	}
}

// TestAllocsRaftHandOffs: neither hand-off copies. A steady cycle allocates
// 10 objects: per follower its AppendReq's entry copy, the boxed AppendReq
// and the boxed AppendResp (six, which cross the network), and four inbox
// slices of the test harness. A Flush that grows a fresh queue, or a
// TakeCommitted that copies its range, costs a cycle 17.
func TestAllocsRaftHandOffs(t *testing.T) {
	const bound = 10
	_, cycle := steadyLeader(t, 1)
	if objs, _ := cycleCost(cycle); objs > bound {
		t.Errorf("a steady cycle allocates %d objects, want at most %d", objs, bound)
	}
}

// TestAllocsNoHandOffCopies: TakeCommitted returns the log's own range,
// capped so an append cannot write into the log, and Flush the node's own
// queue, cleared when the next Flush takes it back so it pins no body.
func TestAllocsNoHandOffCopies(t *testing.T) {
	h, _ := steadyLeader(t, 47)
	lead := h.nodes[h.leader()]
	if _, _, ok := lead.Propose([]byte("shared"), h.now); !ok {
		t.Fatal("leader refused a proposal")
	}
	h.run(3)
	ents := lead.TakeCommitted()
	if len(ents) != 1 || string(ents[0].Data) != "shared" {
		t.Fatalf("TakeCommitted = %+v, want the one proposal", ents)
	}
	if at := ents[0].Index - lead.snapIndex - 1; &ents[0] != &lead.log[at] || cap(ents) != len(ents) {
		t.Errorf("TakeCommitted returned a copy (or an uncapped range) of log entry %d", ents[0].Index)
	}
	lead.Tick(lead.Deadline()) // a heartbeat to each follower
	first, err := lead.Flush(h.proc)
	if err != nil || len(first) != 2 {
		t.Fatalf("Flush = %d messages, %v; want the two heartbeats", len(first), err)
	}
	lead.Tick(lead.Deadline())
	if _, err := lead.Flush(h.proc); err != nil {
		t.Fatal(err)
	}
	for i, o := range first {
		if o != (Outbound{}) {
			t.Errorf("message %d of a queue the next Flush took back still holds %+v", i, o)
		}
	}
	lead.Tick(lead.Deadline())
	third, err := lead.Flush(h.proc)
	if err != nil || len(third) != 2 || &third[0] != &first[0] {
		t.Errorf("the third Flush did not reuse the first one's queue (%d messages, %v)", len(third), err)
	}
}
