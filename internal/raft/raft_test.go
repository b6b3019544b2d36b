package raft

import (
	"fmt"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/sim"
)

// fakeProc satisfies sim.Proc for stores that never touch the runtime
// (MemStore). Tests that persist through a real disk use sim.NewVirtual.
type fakeProc struct{ now *time.Duration }

func (f fakeProc) Name() string        { return "raft-test" }
func (f fakeProc) Now() time.Duration  { return *f.now }
func (f fakeProc) Sleep(time.Duration) {}
func (f fakeProc) Go(string, func(sim.Proc)) {
	panic("raft-test: fakeProc.Go")
}
func (f fakeProc) Runtime() sim.Runtime { return nil }

// roundEvery is the virtual time one harness round takes.
const roundEvery = 5 * time.Millisecond

// harness wires N nodes through in-memory inboxes with a hand-cranked
// clock, delivering in node order each round so runs are deterministic.
type harness struct {
	t     *testing.T
	now   time.Duration
	ids   []int
	nodes map[int]*Node
	inbox map[int][]any
	down  map[int]bool
	cut   map[[2]int]bool // blocked directed links

	// route, when set, decides each message's fate: one delivery per
	// returned delay, in rounds past the normal one (nil drops it,
	// {0} is the default, {0, 3} duplicates).
	route func(from, to int, m any) []int
	late  []lateMsg
	round int
	// check, when set, runs after every Step.
	check func()
	// flushed, when set, runs after every Flush.
	flushed func(id int)
	// proc drives the stores; a fakeProc unless a test sets a real one.
	proc sim.Proc
}

type lateMsg struct {
	due int
	to  int
	m   any
}

func newHarness(t *testing.T, n int) *harness {
	h := &harness{
		t:     t,
		nodes: make(map[int]*Node),
		inbox: make(map[int][]any),
		down:  make(map[int]bool),
		cut:   make(map[[2]int]bool),
	}
	for i := 0; i < n; i++ {
		h.ids = append(h.ids, i)
	}
	h.proc = fakeProc{&h.now}
	for _, id := range h.ids {
		h.addNode(id, &MemStore{})
	}
	return h
}

func (h *harness) addNode(id int, st Store) {
	nd := New(Config{ID: id, Peers: append([]int(nil), h.ids...), Seed: int64(1000 + id), Store: st})
	if _, err := nd.Load(h.proc, h.now); err != nil {
		h.t.Fatalf("load node %d: %v", id, err)
	}
	h.nodes[id] = nd
}

// step runs one round: tick due timers, flush, route, deliver.
func (h *harness) step() {
	h.round++
	held := h.late[:0]
	for _, l := range h.late {
		if l.due > h.round {
			held = append(held, l)
		} else if !h.down[l.to] {
			h.inbox[l.to] = append(h.inbox[l.to], l.m)
		}
	}
	h.late = held
	for _, id := range h.ids {
		if h.down[id] {
			continue
		}
		nd := h.nodes[id]
		if h.now >= nd.Deadline() {
			nd.Tick(h.now)
		}
		for _, m := range h.inbox[id] {
			nd.Step(m, h.now)
			if h.check != nil {
				h.check()
			}
		}
		h.inbox[id] = nil
		out, err := nd.Flush(h.proc)
		if err != nil {
			h.t.Fatalf("flush node %d: %v", id, err)
		}
		if h.flushed != nil {
			h.flushed(id)
		}
		for _, o := range out {
			if h.down[o.To] || h.cut[[2]int{id, o.To}] {
				continue
			}
			delays := []int{0}
			if h.route != nil {
				delays = h.route(id, o.To, o.Msg)
			}
			for _, d := range delays {
				if d == 0 {
					h.inbox[o.To] = append(h.inbox[o.To], o.Msg)
				} else {
					h.late = append(h.late, lateMsg{due: h.round + d, to: o.To, m: o.Msg})
				}
			}
		}
	}
	h.now += roundEvery
}

func (h *harness) run(rounds int) {
	for i := 0; i < rounds; i++ {
		h.step()
	}
}

// leader returns the unique live ReadyToLead node, or -1.
func (h *harness) leader() int {
	found := -1
	for _, id := range h.ids {
		if !h.down[id] && h.nodes[id].ReadyToLead() {
			if found >= 0 {
				h.t.Fatalf("two ready leaders: %d and %d", found, id)
			}
			found = id
		}
	}
	return found
}

func (h *harness) waitLeader(rounds int) int {
	for i := 0; i < rounds; i++ {
		if l := h.leader(); l >= 0 {
			return l
		}
		h.step()
	}
	h.t.Fatalf("no leader after %d rounds", rounds)
	return -1
}

func TestElectionConverges(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(400)
	st := h.nodes[lead].Status()
	if st.Role != Leader {
		t.Fatalf("node %d: role %v", lead, st.Role)
	}
	h.run(40)
	for _, id := range h.ids {
		s := h.nodes[id].Status()
		if s.Term != st.Term {
			t.Fatalf("node %d term %d, leader term %d", id, s.Term, st.Term)
		}
		if id != lead && s.Role != Follower {
			t.Fatalf("node %d: role %v, want follower", id, s.Role)
		}
		if s.Leader != lead {
			t.Fatalf("node %d sees leader %d, want %d", id, s.Leader, lead)
		}
	}
	if !h.nodes[lead].LeaseValid(h.now) {
		t.Fatal("settled leader has no valid lease")
	}
}

// collect drains TakeCommitted on every node into per-node logs.
func collect(h *harness, got map[int][]string) {
	for _, id := range h.ids {
		for _, e := range h.nodes[id].TakeCommitted() {
			if e.Data != nil {
				got[id] = append(got[id], string(e.Data))
			}
		}
	}
}

func TestReplicationDeliversEverywhere(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(400)
	got := map[int][]string{}
	for i := 0; i < 5; i++ {
		if _, _, ok := h.nodes[lead].Propose([]byte(fmt.Sprintf("op%d", i)), h.now); !ok {
			t.Fatalf("propose %d refused", i)
		}
		h.run(4)
		collect(h, got)
	}
	h.run(40)
	collect(h, got)
	want := "[op0 op1 op2 op3 op4]"
	for _, id := range h.ids {
		if s := fmt.Sprint(got[id]); s != want {
			t.Fatalf("node %d applied %s, want %s", id, s, want)
		}
	}
}

func TestLeaderFailoverKeepsCommitted(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(400)
	got := map[int][]string{}
	h.nodes[lead].Propose([]byte("before"), h.now)
	h.run(20)
	collect(h, got)

	h.down[lead] = true
	next := h.waitLeader(400)
	if next == lead {
		t.Fatal("dead leader still leading")
	}
	h.nodes[next].Propose([]byte("after"), h.now)
	h.run(20)
	collect(h, got)

	// The old leader rejoins, steps down, and converges.
	h.down[lead] = false
	h.run(200)
	collect(h, got)
	for _, id := range h.ids {
		if s := fmt.Sprint(got[id]); s != "[before after]" {
			t.Fatalf("node %d applied %s, want [before after]", id, s)
		}
	}
	if s := h.nodes[lead].Status(); s.Role == Leader {
		t.Fatal("old leader did not step down")
	}
}

func TestMinorityLeaderCannotCommitOrHoldLease(t *testing.T) {
	h := newHarness(t, 3)
	lead := h.waitLeader(400)
	h.run(10)
	// Partition the leader away from both peers, in both directions.
	for _, id := range h.ids {
		if id != lead {
			h.cut[[2]int{lead, id}] = true
			h.cut[[2]int{id, lead}] = true
		}
	}
	idx, term, ok := h.nodes[lead].Propose([]byte("lost"), h.now)
	if !ok {
		t.Fatal("partitioned leader refused propose")
	}
	h.run(300)
	if c := h.nodes[lead].Status().Commit; c >= idx {
		t.Fatalf("minority leader committed %d >= proposed %d (term %d)", c, idx, term)
	}
	if h.nodes[lead].LeaseValid(h.now) {
		t.Fatal("minority leader still holds lease after partition")
	}
	if h.nodes[lead].Status().Role == Leader {
		t.Fatal("minority leader did not step down via quorum check")
	}
	// Majority side elected a replacement and can commit.
	next := h.waitLeader(400)
	if next == lead {
		t.Fatal("partitioned node won election")
	}
	nidx, _, ok := h.nodes[next].Propose([]byte("kept"), h.now)
	if !ok {
		t.Fatal("majority leader refused propose")
	}
	h.run(40)
	if c := h.nodes[next].Status().Commit; c < nidx {
		t.Fatalf("majority leader commit %d < %d", c, nidx)
	}
	// Heal: the stale entry is truncated, the committed one survives.
	h.cut = map[[2]int]bool{}
	got := map[int][]string{}
	h.run(300)
	collect(h, got)
	for _, id := range h.ids {
		for _, s := range got[id] {
			if s == "lost" {
				t.Fatalf("node %d applied the uncommitted minority entry", id)
			}
		}
	}
}

func TestSnapshotInstallCatchesUpBlankNode(t *testing.T) {
	h := newHarness(t, 3)
	straggler := 2
	h.down[straggler] = true
	lead := h.waitLeader(400)
	for i := 0; i < 6; i++ {
		h.nodes[lead].Propose([]byte(fmt.Sprintf("op%d", i)), h.now)
		h.run(4)
	}
	h.run(20)
	// Compact the leader's log so the straggler can only catch up by
	// snapshot; the snapshot payload stands in for the app state.
	st := h.nodes[lead].Status()
	h.nodes[lead].Compact(st.Commit, []byte("app-snapshot"))
	h.run(4)
	if s := h.nodes[lead].Status(); s.SnapIndex != st.Commit {
		t.Fatalf("compact: snapIndex %d, want %d", s.SnapIndex, st.Commit)
	}

	h.down[straggler] = false
	h.run(200)
	ev := h.nodes[straggler].TakeInstalled()
	if ev == nil {
		t.Fatal("straggler installed no snapshot")
	}
	if string(ev.Data) != "app-snapshot" || ev.Index != st.Commit {
		t.Fatalf("installed (%q, %d), want (app-snapshot, %d)", ev.Data, ev.Index, st.Commit)
	}
	if h.nodes[straggler].Tallies().SnapInstalls == 0 {
		t.Fatal("snapshot tally not counted")
	}
	// New entries still flow to it afterwards.
	h.nodes[lead].Propose([]byte("post"), h.now)
	got := map[int][]string{}
	h.run(40)
	collect(h, got)
	if s := fmt.Sprint(got[straggler]); s != "[post]" {
		t.Fatalf("straggler applied %s after install, want [post]", s)
	}
}

func TestSingleNodeLeadsImmediately(t *testing.T) {
	h := newHarness(t, 1)
	lead := h.waitLeader(200)
	idx, _, ok := h.nodes[lead].Propose([]byte("solo"), h.now)
	if !ok {
		t.Fatal("solo propose refused")
	}
	h.run(2)
	if c := h.nodes[lead].Status().Commit; c < idx {
		t.Fatalf("solo commit %d < %d", c, idx)
	}
}

func TestDiskStoreSurvivesCrash(t *testing.T) {
	rt := sim.NewVirtual()
	err := rt.Run("driver", func(p sim.Proc) {
		d := disk.New(disk.Config{
			BlockSize: 1024, NumBlocks: 64,
			Timing:    disk.FixedTiming{Latency: 500 * time.Microsecond},
			WriteBack: true, SyncTime: time.Millisecond,
		})
		st, err := NewDiskStore(d)
		if err != nil {
			t.Errorf("new store: %v", err)
			return
		}
		if _, ok, err := st.Load(p); err != nil || ok {
			t.Errorf("fresh load: ok=%v err=%v", ok, err)
			return
		}
		e1 := Edit{Term: 3, VotedFor: 1, From: 1, Entries: []Entry{{Index: 1, Term: 2, Data: []byte("a")}}}
		if err := st.Save(p, e1); err != nil {
			t.Errorf("save 1: %v", err)
			return
		}
		e2 := Edit{Term: 4, VotedFor: 1, From: 2, Entries: []Entry{{Index: 2, Term: 4, Data: []byte("b")}}}
		if err := st.Save(p, e2); err != nil {
			t.Errorf("save 2: %v", err)
			return
		}
		// A kill drops anything unsynced; both saves synced, so the
		// latest image must come back intact after remount.
		d.Crash(p.Now())
		d.Restore()
		got, ok, err := st.Load(p)
		if err != nil || !ok {
			t.Errorf("load after crash: ok=%v err=%v", ok, err)
			return
		}
		if got.Term != 4 || len(got.Entries) != 2 || string(got.Entries[1].Data) != "b" {
			t.Errorf("recovered %+v, want term 4 with 2 entries", got)
		}
	})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
}

func TestDiskStoreNodePersistence(t *testing.T) {
	rt := sim.NewVirtual()
	err := rt.Run("driver", func(p sim.Proc) {
		d := disk.New(disk.Config{
			BlockSize: 1024, NumBlocks: 64,
			Timing:    disk.FixedTiming{Latency: 500 * time.Microsecond},
			WriteBack: true, SyncTime: time.Millisecond,
		})
		st, _ := NewDiskStore(d)
		cfg := Config{ID: 0, Peers: []int{0}, Seed: 5, Store: st}
		nd := New(cfg)
		if _, err := nd.Load(p, 0); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		nd.Tick(nd.Deadline()) // single node: instant leader
		nd.Propose([]byte("durable"), nd.Deadline())
		if _, err := nd.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		term := nd.Status().Term

		d.Crash(p.Now())
		d.Restore()
		nd2 := New(cfg)
		if _, err := nd2.Load(p, 0); err != nil {
			t.Errorf("reload: %v", err)
			return
		}
		s := nd2.Status()
		if s.Term != term || s.LastIndex != 2 {
			t.Errorf("recovered term %d last %d, want term %d last 2", s.Term, s.LastIndex, term)
		}
	})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
}
