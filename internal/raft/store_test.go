package raft

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/msg/wire"
	"bridge/internal/sim"
)

// The store contract: a Flush saves only what changed, and after every
// Flush the store must Load exactly the state a whole-state save of the
// node would have recorded.

// persisted is the node's persistent state as a whole-state save would
// record it.
func persisted(n *Node) State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return State{Term: n.term, VotedFor: n.votedFor, SnapIndex: n.snapIndex, SnapTerm: n.snapTerm, Snapshot: n.snapshot, Entries: n.log}
}

// diffState describes how got differs from want ("" when it does not).
// Empty and nil byte slices are equal, as they are to the codec.
func diffState(got, want State) string {
	if got.Term != want.Term || got.VotedFor != want.VotedFor || got.SnapIndex != want.SnapIndex || got.SnapTerm != want.SnapTerm {
		return fmt.Sprintf("term/vote/snapshot (%d, %d, %d, %d), want (%d, %d, %d, %d)",
			got.Term, got.VotedFor, got.SnapIndex, got.SnapTerm, want.Term, want.VotedFor, want.SnapIndex, want.SnapTerm)
	}
	if !bytes.Equal(got.Snapshot, want.Snapshot) {
		return fmt.Sprintf("snapshot %q, want %q", got.Snapshot, want.Snapshot)
	}
	if len(got.Entries) != len(want.Entries) {
		return fmt.Sprintf("%d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i, e := range got.Entries {
		w := want.Entries[i]
		if e.Index != w.Index || e.Term != w.Term || !bytes.Equal(e.Data, w.Data) {
			return fmt.Sprintf("entry %d is (%d, %d, %q), want (%d, %d, %q)", i, e.Index, e.Term, e.Data, w.Index, w.Term, w.Data)
		}
	}
	return ""
}

// checkStore fails the test unless st Loads exactly n's persistent state.
func checkStore(t *testing.T, p sim.Proc, st Store, n *Node, at string) {
	t.Helper()
	got, ok, err := st.Load(p)
	if err != nil {
		t.Fatalf("%s: store: %v", at, err)
	}
	if !ok {
		// Never saved: the node must not have changed anything yet.
		got.VotedFor = -1
	}
	if d := diffState(got, persisted(n)); d != "" {
		t.Fatalf("%s: store holds %s", at, d)
	}
}

// withDiskStores runs fn in a virtual runtime with n DiskStores, each on
// its own write-back disk.
func withDiskStores(t *testing.T, n int, fn func(p sim.Proc, disks []*disk.Disk, stores []Store)) {
	t.Helper()
	err := sim.NewVirtual().Run("driver", func(p sim.Proc) {
		disks := make([]*disk.Disk, n)
		stores := make([]Store, n)
		for i := range disks {
			disks[i] = disk.New(disk.Config{
				BlockSize: 1024, NumBlocks: 256,
				Timing:    disk.FixedTiming{Latency: 500 * time.Microsecond},
				WriteBack: true, SyncTime: time.Millisecond,
			})
			st, err := NewDiskStore(disks[i])
			if err != nil {
				t.Errorf("new store: %v", err)
				return
			}
			stores[i] = st
		}
		fn(p, disks, stores)
	})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
}

// spyStore counts the kinds of edit a history makes its store apply.
type spyStore struct {
	Store
	last        uint64 // the stored log's last index
	truncations int    // log edits that cut stored entries
	snapshots   int
}

func (s *spyStore) Save(p sim.Proc, e Edit) error {
	if e.Snap {
		s.snapshots++
		s.last = max(s.last, e.SnapIndex)
	}
	if e.From != 0 {
		if e.From <= s.last {
			s.truncations++
		}
		s.last = e.From - 1 + uint64(len(e.Entries))
	}
	return s.Store.Save(p, e)
}

// historyCover tallies what a random history exercised.
type historyCover struct {
	flushes, truncations, snapshots, installs, restarts, elections int
}

// storeHistory drives a three-node group over lossy, reordering links
// with random proposals, compactions, partitions, crashes and restarts
// from the store, checking every store after every Flush, and adds what it
// exercised to cov. reopen, when set, simulates the crash of member id's
// store medium before it restarts.
func storeHistory(t *testing.T, seed int64, proc sim.Proc, stores []Store, reopen func(id int), cov *historyCover) {
	h := newHarness(t, len(stores))
	if proc != nil {
		h.proc = proc
	}
	spies := make([]*spyStore, len(stores))
	for id, st := range stores {
		spies[id] = &spyStore{Store: st}
		h.addNode(id, spies[id])
	}
	h.flushed = func(id int) {
		cov.flushes++
		checkStore(t, h.proc, spies[id], h.nodes[id], fmt.Sprintf("seed %d round %d node %d", seed, h.round, id))
	}
	rng := rand.New(rand.NewSource(seed))
	h.route = func(from, to int, m any) []int {
		switch r := rng.Float64(); {
		case r < 0.05:
			return nil
		case r < 0.08:
			return []int{0, 1 + rng.Intn(4)}
		case r < 0.15:
			return []int{1 + rng.Intn(6)}
		}
		return []int{0}
	}
	live := func() int {
		for {
			if id := rng.Intn(len(stores)); !h.down[id] {
				return id
			}
		}
	}
	for round := 0; round < 1500; round++ {
		switch r := rng.Float64(); {
		case r < 0.3:
			h.nodes[live()].Propose([]byte(fmt.Sprintf("r%d", round)), h.now)
		case r < 0.34:
			nd := h.nodes[live()]
			if st := nd.Status(); st.Commit > st.SnapIndex {
				nd.Compact(st.Commit, []byte(fmt.Sprintf("snap@%d", st.Commit)))
			}
		case r < 0.355:
			id := live()
			for _, o := range h.ids {
				if o != id {
					h.cut[[2]int{id, o}], h.cut[[2]int{o, id}] = true, true
				}
			}
		case r < 0.37:
			h.cut = map[[2]int]bool{}
		case r < 0.38:
			if down := h.down; !down[0] && !down[1] && !down[2] {
				id := live()
				down[id], h.inbox[id] = true, nil
			}
		case r < 0.40:
			for id := range stores {
				if h.down[id] {
					if reopen != nil {
						reopen(id)
					}
					h.addNode(id, spies[id])
					h.down[id] = false
					cov.restarts++
					break
				}
			}
		}
		h.step()
	}
	for id, s := range spies {
		cov.truncations += s.truncations
		cov.snapshots += s.snapshots
		tl := h.nodes[id].Tallies()
		cov.installs += int(tl.SnapInstalls)
		cov.elections += int(tl.Elections)
	}
}

func checkCover(t *testing.T, cov historyCover) {
	t.Helper()
	t.Logf("%+v", cov)
	if cov.truncations == 0 || cov.snapshots == 0 || cov.installs == 0 || cov.restarts == 0 || cov.elections < 2 {
		t.Fatalf("the histories missed an edit kind: %+v", cov)
	}
}

func TestStoreContractMemStore(t *testing.T) {
	var cov historyCover
	for seed := int64(1); seed <= 6; seed++ {
		storeHistory(t, seed, nil, []Store{&MemStore{}, &MemStore{}, &MemStore{}}, nil, &cov)
	}
	checkCover(t, cov)
}

// TestStoreContractDiskStore runs the same histories on disk, where a
// restart first crashes the member's disk: every save synced, so nothing
// may be lost.
func TestStoreContractDiskStore(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var cov historyCover
		withDiskStores(t, 3, func(p sim.Proc, disks []*disk.Disk, stores []Store) {
			storeHistory(t, seed, p, stores, func(id int) {
				disks[id].Crash(p.Now())
				disks[id].Restore()
			}, &cov)
		})
		checkCover(t, cov)
	}
}

// TestStoreContractEdgeEdits drives one follower through the edits a
// random history rarely makes: a truncation at the consistency point that
// appends nothing, an install that discards a conflicting suffix, and
// entries appended and compacted away before one Flush, as a replicated
// server does when an append commits what it carries.
func TestStoreContractEdgeEdits(t *testing.T) {
	ents := func(from, to, term uint64) (out []Entry) {
		for i := from; i <= to; i++ {
			out = append(out, Entry{Index: i, Term: term, Data: []byte{byte(i)}})
		}
		return out
	}
	steps := []struct {
		what    string
		msg     any
		compact uint64
	}{
		{"append 1-5", AppendReq{Term: 1, Leader: 1, Entries: ents(1, 5, 1), Commit: 2}, 0},
		{"conflict at 4", AppendReq{Term: 2, Leader: 2, PrevIndex: 4, PrevTerm: 2, Commit: 2}, 0},
		{"install over a conflicting suffix", SnapReq{Term: 3, Leader: 2, Index: 2, SnapTerm: 3, Data: []byte("snap@2")}, 0},
		{"append 3-4", AppendReq{Term: 3, Leader: 2, PrevIndex: 2, PrevTerm: 3, Entries: ents(3, 4, 3)}, 0},
		{"append 5-7, compact through 6", AppendReq{Term: 3, Leader: 2, PrevIndex: 4, PrevTerm: 3, Entries: ents(5, 7, 3), Commit: 6}, 6},
	}
	drive := func(p sim.Proc, st Store) {
		n := New(Config{ID: 0, Peers: []int{0, 1, 2}, Seed: 1, Store: st})
		if _, err := n.Load(p, 0); err != nil {
			t.Fatal(err)
		}
		for _, s := range steps {
			n.Step(s.msg, 0)
			if s.compact != 0 {
				n.Compact(s.compact, []byte("snap"))
			}
			if _, err := n.Flush(p); err != nil {
				t.Fatalf("%s: %v", s.what, err)
			}
			checkStore(t, p, st, n, s.what)
		}
		if st := n.Status(); st.SnapIndex != 6 || st.LastIndex != 7 {
			t.Fatalf("ended with snapshot %d, log to %d; want 6 and 7", st.SnapIndex, st.LastIndex)
		}
	}
	var now time.Duration
	drive(fakeProc{&now}, &MemStore{})
	withDiskStores(t, 1, func(p sim.Proc, _ []*disk.Disk, stores []Store) { drive(p, stores[0]) })
}

// splitStore persists an edit in two writes — the term, vote and snapshot,
// then the log — as a store that keeps them in separate files would.
// logFirst swaps the order; kill, when set, stops the next edit that
// carries a snapshot after its first write, as a crash between the two
// would.
type splitStore struct {
	hard     State   // term, vote and snapshot as persisted
	log      []Entry // the log as persisted
	ok       bool
	logFirst bool
	kill     bool
}

var errKilled = errors.New("killed between the snapshot and the log")

func (s *splitStore) Load(sim.Proc) (State, bool, error) {
	st := s.hard
	st.Entries = append([]Entry(nil), s.log...)
	return st, s.ok, nil
}

func (s *splitStore) Save(_ sim.Proc, e Edit) error {
	s.ok = true
	writeHard := func() {
		s.hard.Term, s.hard.VotedFor = e.Term, e.VotedFor
		if e.Snap {
			s.hard.SnapIndex, s.hard.SnapTerm, s.hard.Snapshot = e.SnapIndex, e.SnapTerm, e.Snapshot
		}
	}
	writeLog := func() {
		st := State{Entries: s.log}
		st.apply(Edit{Snap: e.Snap, SnapIndex: e.SnapIndex, From: e.From, Entries: e.Entries})
		s.log = st.Entries
	}
	first, second := writeHard, writeLog
	if s.logFirst {
		first, second = writeLog, writeHard
	}
	first()
	if e.Snap && s.kill {
		s.kill = false
		return errKilled
	}
	second()
	return nil
}

// TestSnapshotBeforeTruncationSurvivesCrash: a member compacts ten
// committed entries through index 6 and is killed after the snapshot is
// persisted but before the truncation it allows. On restart the snapshot
// and the retained log still hold every committed entry. Persisted the
// other way round, the kill leaves a log that resumes at 7 after a
// snapshot through 0, and Load refuses it rather than boot without
// entries 1–6.
func TestSnapshotBeforeTruncationSurvivesCrash(t *testing.T) {
	for _, logFirst := range []bool{false, true} {
		store := &splitStore{logFirst: logFirst}
		var now time.Duration
		proc := fakeProc{&now}
		cfg := Config{ID: 0, Peers: []int{0}, Seed: 5, Store: store}
		nd := New(cfg)
		if _, err := nd.Load(proc, now); err != nil {
			t.Fatal(err)
		}
		now = nd.Deadline()
		nd.Tick(now) // single node: instant leader, no-op at index 1
		var want []string
		for i := 2; i <= 10; i++ {
			d := fmt.Sprintf("op%d", i)
			nd.Propose([]byte(d), now)
			want = append(want, d)
			if _, err := nd.Flush(proc); err != nil {
				t.Fatal(err)
			}
		}
		if st := nd.Status(); st.Commit != 10 {
			t.Fatalf("commit %d, want 10", st.Commit)
		}
		var snap []string
		for _, e := range nd.TakeCommitted() {
			if e.Index <= 6 && e.Data != nil {
				snap = append(snap, string(e.Data))
			}
		}
		nd.Compact(6, []byte(strings.Join(snap, ",")))
		store.kill = true
		if _, err := nd.Flush(proc); !errors.Is(err, errKilled) {
			t.Fatalf("flush across the kill: %v", err)
		}

		nd = New(cfg)
		data, err := nd.Load(proc, now)
		if logFirst {
			if err == nil || !strings.Contains(err.Error(), "resumes at index 7 after a snapshot through 0") {
				t.Fatalf("log persisted first: Load = %v, want the gap reported", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("snapshot persisted first: Load: %v", err)
		}
		if st := nd.Status(); st.SnapIndex != 6 || st.LastIndex != 10 {
			t.Fatalf("recovered snapshot through %d, log to %d; want 6 and 10", st.SnapIndex, st.LastIndex)
		}
		got := strings.Split(string(data), ",")
		now = nd.Deadline()
		nd.Tick(now)
		if _, err := nd.Flush(proc); err != nil {
			t.Fatal(err)
		}
		for _, e := range nd.TakeCommitted() {
			if e.Data != nil {
				got = append(got, string(e.Data))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("snapshot plus log replay %v, want %v", got, want)
		}
	}
}

// withStoreDisk runs fn on a fresh write-back disk of blocks blocks of
// 64 bytes, with a DiskStore on it.
func withStoreDisk(t testing.TB, blocks int, fn func(p sim.Proc, d *disk.Disk, s *DiskStore)) {
	t.Helper()
	err := sim.NewVirtual().Run("driver", func(p sim.Proc) {
		d := disk.New(disk.Config{BlockSize: 64, NumBlocks: blocks, Timing: disk.FixedTiming{}, WriteBack: true})
		s, err := NewDiskStore(d)
		if err != nil {
			t.Errorf("new store: %v", err)
			return
		}
		fn(p, d, s)
	})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
}

// writeImage writes a hand-built save into region: the payload at the
// region's first blocks, then a header opening with magic over seq, cut
// to its first keep bytes (all of it when keep is 0), as a crash tears it
// over a blank block.
func writeImage(t testing.TB, p sim.Proc, d *disk.Disk, s *DiskStore, region int, magic string, seq uint64, payload []byte, keep int) {
	t.Helper()
	hdr := make([]byte, s.bs)
	putHeader(hdr, magic, seq, payload)
	if keep > 0 {
		clear(hdr[keep:])
	}
	for i := 0; i*s.bs < len(payload); i++ {
		blk := make([]byte, s.bs)
		copy(blk, payload[i*s.bs:])
		if err := d.WriteBlock(p, 2+region*s.regionBlocks+i, blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteBlock(p, region, hdr); err != nil {
		t.Fatal(err)
	}
}

// A store Load cannot read fails it with a StoreFormatError, whatever the
// other region holds; it is never reported as fresh, which would boot its
// member at term 0 with no vote. A blank store is fresh, and a save torn
// anywhere in its header is skipped: the other region loads, or the store
// is fresh.
func TestDiskStoreLoadRefusesWhatItCannotRead(t *testing.T) {
	good, err := stateCodec.Append(nil, State{Term: 3, VotedFor: 1})
	if err != nil {
		t.Fatal(err)
	}
	type testCase struct {
		what    string
		write   func(p sim.Proc, d *disk.Disk, s *DiskStore)
		version int  // of the StoreFormatError wanted; 0 for none
		fresh   bool // with no error: Load's ok is false
	}
	cases := []testCase{
		{what: "blank", fresh: true, write: func(sim.Proc, *disk.Disk, *DiskStore) {}},
		{what: "a gob-era header with a valid checksum", version: 1, write: func(p sim.Proc, d *disk.Disk, s *DiskStore) {
			writeImage(t, p, d, s, 1, gobMagic, 1, []byte("\x1f\xff\x81\x03\x01\x01\x05State\x01\xff\x82"), 0)
		}},
		{what: "a gob-era header beside a readable region", version: 1, write: func(p sim.Proc, d *disk.Disk, s *DiskStore) {
			writeImage(t, p, d, s, 0, storeMagic, 2, good, 0)
			writeImage(t, p, d, s, 1, gobMagic, 1, good, 0)
		}},
		{what: "a checksummed state that does not decode", version: storeVersion, write: func(p sim.Proc, d *disk.Disk, s *DiskStore) {
			writeImage(t, p, d, s, 1, storeMagic, 1, append(bytes.Clone(good), 0), 0)
		}},
		{what: "a readable state", write: func(p sim.Proc, d *disk.Disk, s *DiskStore) {
			writeImage(t, p, d, s, 1, storeMagic, 1, good, 0)
		}},
	}
	// A first save torn at keep bytes, over a blank store; a second torn
	// over a blank region 0, beside the first's intact region 1. A tear
	// that keeps the magic but not the length leaves a zero length and a
	// zero CRC, which is the CRC of an empty payload.
	for keep := 1; keep < headerLen; keep++ {
		cases = append(cases, testCase{what: fmt.Sprintf("a first save torn at %d bytes", keep), fresh: true,
			write: func(p sim.Proc, d *disk.Disk, s *DiskStore) {
				writeImage(t, p, d, s, 1, storeMagic, 1, good, keep)
			}}, testCase{what: fmt.Sprintf("a second save torn at %d bytes", keep),
			write: func(p sim.Proc, d *disk.Disk, s *DiskStore) {
				writeImage(t, p, d, s, 1, storeMagic, 1, good, 0)
				writeImage(t, p, d, s, 0, storeMagic, 2, good, keep)
			}})
	}
	for _, tc := range cases {
		withStoreDisk(t, 8, func(p sim.Proc, d *disk.Disk, s *DiskStore) {
			tc.write(p, d, s)
			st, ok, err := s.Load(p)
			var fe *StoreFormatError
			switch {
			case tc.version != 0:
				if !errors.As(err, &fe) || fe.Version != tc.version || ok {
					t.Errorf("%s: Load = ok %v, %v; want a StoreFormatError for version %d", tc.what, ok, err, tc.version)
				}
				if tc.version == storeVersion && !errors.Is(err, wire.ErrCorrupt) {
					t.Errorf("%s: %v does not wrap the decoder's failure", tc.what, err)
				}
			case err != nil || ok == tc.fresh:
				t.Errorf("%s: Load = ok %v, %v; want ok %v", tc.what, ok, err, !tc.fresh)
			case ok && (st.Term != 3 || st.VotedFor != 1):
				t.Errorf("%s: loaded term %d vote %d, want 3 and 1", tc.what, st.Term, st.VotedFor)
			}
		})
	}
}

// FuzzDiskStoreLoad: whatever two headers and a payload hold, Load returns
// a state, fresh, or an error; it never panics.
func FuzzDiskStoreLoad(f *testing.F) {
	good, _ := stateCodec.Append(nil, State{Term: 2, VotedFor: -1, Entries: []Entry{{Index: 1, Term: 2, Data: []byte("x")}}})
	hdr := func(magic string, seq uint64, payload []byte) []byte {
		h := make([]byte, headerLen)
		putHeader(h, magic, seq, payload)
		return h
	}
	f.Add([]byte(nil), hdr(storeMagic, 1, good), good)
	f.Add(hdr(storeMagic, 2, good), []byte(nil), good)
	f.Add([]byte(nil), hdr(gobMagic, 1, good), good)
	f.Add([]byte(nil), hdr(storeMagic, 1, good[:3]), good[:3])
	f.Fuzz(func(t *testing.T, h0, h1, payload []byte) {
		withStoreDisk(t, 8, func(p sim.Proc, d *disk.Disk, s *DiskStore) {
			for bn, img := range [][]byte{h0, h1} {
				blk := make([]byte, s.bs)
				copy(blk, img)
				if err := d.WriteBlock(p, bn, blk); err != nil {
					t.Fatal(err)
				}
			}
			for bn := 2; bn < 8 && (bn-2)*s.bs < len(payload); bn++ {
				blk := make([]byte, s.bs)
				copy(blk, payload[(bn-2)*s.bs:])
				if err := d.WriteBlock(p, bn, blk); err != nil {
					t.Fatal(err)
				}
			}
			_, _, _ = s.Load(p)
		})
	})
}
