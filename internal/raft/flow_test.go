package raft

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// followers returns the ids other than lead.
func (h *harness) followers(lead int) []int {
	var out []int
	for _, id := range h.ids {
		if id != lead {
			out = append(out, id)
		}
	}
	return out
}

// deliveries drains TakeCommitted everywhere and checks each node's stream
// stays gapless and duplicate-free: entry k of a node's stream has index k+1.
func deliveries(t *testing.T, h *harness, got map[int][]Entry) {
	t.Helper()
	for _, id := range h.ids {
		for _, e := range h.nodes[id].TakeCommitted() {
			if want := uint64(len(got[id]) + 1); e.Index != want {
				t.Fatalf("node %d delivered index %d, want %d (a gap or a duplicate)", id, e.Index, want)
			}
			got[id] = append(got[id], e)
		}
	}
}

// TestStaleAcksDoNotAmplify is the echo-storm regression: with one
// follower's acknowledgements arriving late — after the leader has already
// proposed again — every ack is "stale". Each entry must still cost one
// AppendReq per follower; resending on a stale ack makes the count grow
// with the square of the run length.
func TestStaleAcksDoNotAmplify(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(400)
	h.run(20)
	slow := h.followers(lead)[0]
	h.route = func(from, to int, m any) []int {
		if _, ack := m.(AppendResp); ack && from == slow {
			return []int{2}
		}
		return []int{0}
	}
	const proposals = 200
	got := map[int][]Entry{}
	before := h.nodes[lead].Tallies()
	start := h.now
	for i := 0; i < proposals; i++ {
		if _, _, ok := h.nodes[lead].Propose([]byte(fmt.Sprintf("op%d", i)), h.now); !ok {
			t.Fatalf("propose %d refused", i)
		}
		h.step()
		deliveries(t, h, got)
	}
	h.run(40)
	deliveries(t, h, got)
	after := h.nodes[lead].Tallies()

	beats := int64((h.now-start)/h.nodes[lead].cfg.HeartbeatEvery) + 1
	budget := 2*proposals + 2*beats
	if sent := after.AppendsSent - before.AppendsSent; sent > budget {
		t.Fatalf("%d proposals cost %d AppendReq, want at most %d (2 per entry + %d heartbeat rounds)",
			proposals, sent, budget, beats)
	}
	if r := after.AppendRejects - before.AppendRejects; r != 0 {
		t.Fatalf("%d rejects on a lossless, ordered network", r)
	}
	last := h.nodes[lead].Status().LastIndex
	for _, id := range h.ids {
		if n := uint64(len(got[id])); n != last {
			t.Fatalf("node %d delivered %d entries, log holds %d", id, n, last)
		}
	}
}

// TestLostAppendRepairedByHeartbeat drops the one AppendReq that carries an
// entry to a follower. Optimistic next means the leader will not resend it
// on its own; the next heartbeat's consistency check fails at the follower,
// whose reject carries its log end, and the leader resumes from there.
func TestLostAppendRepairedByHeartbeat(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(400)
	h.run(20)
	victim := h.followers(lead)[0]
	dropped := false
	h.route = func(from, to int, m any) []int {
		if req, ok := m.(AppendReq); ok && to == victim && len(req.Entries) > 0 && !dropped {
			dropped = true
			return nil
		}
		return []int{0}
	}
	got := map[int][]Entry{}
	deliveries(t, h, got)
	before := h.nodes[lead].Tallies()
	idx, _, _ := h.nodes[lead].Propose([]byte("lost-once"), h.now)
	start := h.now
	for h.nodes[victim].Status().Commit < idx {
		if h.now-start > h.nodes[lead].cfg.HeartbeatEvery+4*roundEvery {
			t.Fatalf("victim still at commit %d < %d one heartbeat after the loss",
				h.nodes[victim].Status().Commit, idx)
		}
		h.step()
		deliveries(t, h, got)
	}
	if !dropped {
		t.Fatal("the AppendReq was never dropped")
	}
	h.run(20)
	deliveries(t, h, got)
	after := h.nodes[lead].Tallies()
	if r := after.AppendRejects - before.AppendRejects; r != 1 {
		t.Fatalf("repair took %d rejects, want exactly 1", r)
	}
	for _, id := range h.ids {
		if e := got[id][len(got[id])-1]; e.Index != idx || string(e.Data) != "lost-once" {
			t.Fatalf("node %d last delivered %d %q, want %d \"lost-once\"", id, e.Index, e.Data, idx)
		}
	}
}

// TestOvertakenAppendRepairedByHeartbeat delays an entry's AppendReq past
// the next heartbeat. The heartbeat is rejected and the entry resent; when
// the original finally lands it is a duplicate, which must neither corrupt
// the log nor reach the applier twice.
func TestOvertakenAppendRepairedByHeartbeat(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(400)
	h.run(20)
	victim := h.followers(lead)[0]
	beatRounds := int(h.nodes[lead].cfg.HeartbeatEvery/roundEvery) + 1
	delayed := false
	h.route = func(from, to int, m any) []int {
		if req, ok := m.(AppendReq); ok && to == victim && len(req.Entries) > 0 && !delayed {
			delayed = true
			return []int{beatRounds + 4}
		}
		return []int{0}
	}
	got := map[int][]Entry{}
	deliveries(t, h, got)
	before := h.nodes[lead].Tallies()
	idx, _, _ := h.nodes[lead].Propose([]byte("overtaken"), h.now)
	for i := 0; i < beatRounds+2; i++ {
		h.step()
		deliveries(t, h, got)
	}
	if c := h.nodes[victim].Status().Commit; c < idx {
		t.Fatalf("victim at commit %d < %d after the heartbeat that overtook its entry", c, idx)
	}
	if len(h.late) != 1 {
		t.Fatalf("%d messages still in flight, want the one delayed AppendReq", len(h.late))
	}
	h.run(20) // the original arrives now
	deliveries(t, h, got)
	after := h.nodes[lead].Tallies()
	if r := after.AppendRejects - before.AppendRejects; r != 1 {
		t.Fatalf("repair took %d rejects, want exactly 1", r)
	}
	for _, id := range h.ids {
		if n := uint64(len(got[id])); n != idx {
			t.Fatalf("node %d delivered %d entries, want %d", id, n, idx)
		}
	}
}

// TestFlowControlInvariants perturbs replication traffic — acks and rejects
// delayed, duplicated and reordered, AppendReqs dropped or delayed so that
// rejects happen — under twenty seeds, and checks after every Step:
// match <= next-1 <= lastIndex for every peer of a leader, commit indexes
// never move back, logs that share an (index, term) agree up to it, and
// every node's delivery stream is gapless and in order.
func TestFlowControlInvariants(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := newHarness(t, 3)
			lead := h.waitLeader(400)
			h.run(10)
			h.route = func(from, to int, m any) []int {
				switch m.(type) {
				case AppendResp:
					out := []int{rng.Intn(6)}
					if rng.Intn(5) == 0 {
						out = append(out, rng.Intn(8))
					}
					return out
				case AppendReq:
					switch rng.Intn(10) {
					case 0:
						return nil
					case 1:
						return []int{1 + rng.Intn(5)}
					}
				}
				return []int{0}
			}
			commits := map[int]uint64{}
			got := map[int][]Entry{}
			h.check = func() {
				for _, id := range h.ids {
					n := h.nodes[id]
					if n.commit < commits[id] {
						t.Fatalf("node %d commit went back %d -> %d", id, commits[id], n.commit)
					}
					commits[id] = n.commit
					if n.role != Leader {
						continue
					}
					for _, p := range h.followers(id) {
						if !(n.match[p] <= n.next[p]-1 && n.next[p]-1 <= n.lastIndex()) {
							t.Fatalf("leader %d peer %d: match %d, next %d, lastIndex %d",
								id, p, n.match[p], n.next[p], n.lastIndex())
						}
					}
				}
				checkLogMatching(t, h)
				deliveries(t, h, got)
			}
			proposed := 0
			for r := 0; r < 300; r++ {
				if l := h.leader(); l >= 0 && rng.Intn(3) > 0 {
					h.nodes[l].Propose([]byte(fmt.Sprintf("s%d-%d", seed, proposed)), h.now)
					proposed++
				}
				h.step()
			}
			h.route = nil
			h.run(100)
			h.check()
			lead = h.waitLeader(400)
			last := h.nodes[lead].Status().LastIndex
			seen := 0
			for _, e := range got[lead] {
				if e.Data != nil {
					seen++
				}
			}
			if seen != proposed {
				t.Fatalf("leader delivered %d of %d proposals", seen, proposed)
			}
			for _, id := range h.ids {
				if n := uint64(len(got[id])); n != last {
					t.Fatalf("node %d delivered %d entries, leader's log holds %d", id, n, last)
				}
			}
		})
	}
}

// checkLogMatching asserts Raft's Log Matching property over every pair of
// nodes: if two logs hold an entry with the same index and term, they are
// identical in all entries up through it.
func checkLogMatching(t *testing.T, h *harness) {
	t.Helper()
	for i, a := range h.ids {
		for _, b := range h.ids[i+1:] {
			la, lb := h.nodes[a].log, h.nodes[b].log
			for k := min(len(la), len(lb)) - 1; k >= 0; k-- {
				if la[k].Term != lb[k].Term {
					continue
				}
				for j := 0; j <= k; j++ {
					if la[j].Index != lb[j].Index || la[j].Term != lb[j].Term || !bytes.Equal(la[j].Data, lb[j].Data) {
						t.Fatalf("nodes %d and %d agree at index %d term %d but differ at index %d",
							a, b, la[k].Index, la[k].Term, la[j].Index)
					}
				}
				break
			}
		}
	}
}
