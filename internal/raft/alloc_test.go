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
