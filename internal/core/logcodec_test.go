package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bridge/internal/distrib"
	"bridge/internal/msg"
	"bridge/internal/raft"
	"bridge/internal/sim"
)

// oldGobRop is how the gob-stream format of earlier builds began a log
// entry (a delete of "f"): a gob length prefix, then the rop type
// descriptor. Snapshots began the same way.
var oldGobRop = []byte{0xff, 0x85, 0x7f, 0x03, 0x01, 0x01, 0x03, 0x72, 0x6f, 0x70, 0x01, 0xff, 0x80, 0x00, 0x01, 0x0d}

// Format 1, the last before sessions: a one-block write of "f" (op 4712,
// with no Item), and a snapshot whose op table holds one write record.
var (
	format1Write = []byte{0x1, 0x6, 0x0, 0xc, 0x62, 0x72, 0x69, 0x64, 0x67, 0x65, 0x2e, 0x63, 0x6c, 0x69, 0x2e, 0x33,
		0xe8, 0x24, 0x1, 0x66, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x2, 0x2, 0x1, 0x1, 0x7, 0x0, 0x0, 0x0}
	format1Snap = []byte{0x1, 0x3, 0x0, 0x0, 0x1, 0x0, 0x1, 0x63, 0x9, 0x6, 0x0, 0x1, 0x66, 0x0, 0x0, 0x2, 0x0, 0x0}
)

var codecNames = []string{"", "f", "m3.17.4-a9", "dir/with/slashes", "naïve-ファイル-✓", strings.Repeat("long", 40)}

func randName(rng *rand.Rand) string { return codecNames[rng.Intn(len(codecNames))] }

func randAddr(rng *rand.Rand) msg.Addr {
	return msg.Addr{Node: msg.NodeID(rng.Intn(20) - 2), Port: fmt.Sprintf("bridge.cli.%d", rng.Intn(9))}
}

// randInt64 mixes small values, negatives and the extremes.
func randInt64(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -1 - rng.Int63n(1000)
	case 2:
		return rng.Int63()
	case 3:
		return -rng.Int63() - 1
	}
	return rng.Int63n(100000)
}

func randMeta(rng *rand.Rand) Meta {
	m := Meta{
		Name:      randName(rng),
		FileID:    rng.Uint32(),
		LFSFileID: uint32(rng.Intn(300)),
		Spec: distrib.Spec{
			Kind:        distrib.Kind(rng.Intn(6)),
			P:           rng.Intn(33),
			Start:       rng.Intn(8),
			TotalBlocks: randInt64(rng),
			Seed:        rng.Uint64() >> uint(rng.Intn(64)),
		},
		Blocks: randInt64(rng),
	}
	for i := rng.Intn(9); i > 0; i-- {
		m.Nodes = append(m.Nodes, msg.NodeID(rng.Intn(40)))
	}
	if rng.Intn(3) == 0 {
		// A disordered file: its placement is the chain itself.
		m.Spec.Kind = distrib.Disordered
		c := &ChainInfo{
			HeadNode: uint16(rng.Intn(1 << 16)), HeadLocal: rng.Uint32(),
			TailNode: uint16(rng.Intn(9)), TailLocal: uint32(rng.Intn(5000)),
		}
		for i := rng.Intn(9); i > 0; i-- {
			c.LocalCounts = append(c.LocalCounts, randInt64(rng))
		}
		m.Chain = c
	}
	return m
}

func randRop(rng *rand.Rand, kind uint8) rop {
	op := rop{
		Kind:   kind,
		Client: randAddr(rng),
		Op:     rng.Uint64() >> uint(rng.Intn(64)),
		Name:   randName(rng),
		At:     randInt64(rng),
		N:      rng.Intn(70) - 3,
		Blocks: randInt64(rng),
		EOF:    rng.Intn(2) == 0,
	}
	switch kind {
	case ropCreate, ropDelete, ropWrite:
		op.Meta = randMeta(rng)
		op.NextID = rng.Uint32()
	case ropRename:
		op.New = randName(rng)
	case ropWBFail, ropWBClear:
		op.ErrS = "bridge: deferred write: node 3 did not answer — 再試行"
	}
	if kind == ropWrite {
		if op.Op > 1 && rng.Intn(2) == 0 {
			// A scatter's write item: its offset from the request's id.
			op.Item = 1 + uint64(rng.Int63n(int64(min(op.Op-1, maxBatchBlocks))))
		}
		for i := 1 + rng.Intn(4); i > 0; i-- {
			blk := make([]byte, 1+rng.Intn(PayloadBytes))
			rng.Read(blk)
			op.Data = append(op.Data, blk)
		}
	}
	return op
}

func randKind(rng *rand.Rand) uint8 { return ropCreate + uint8(rng.Intn(int(ropFixup))) }

func randSnap(rng *rand.Rand) rsnap {
	snap := rsnap{NextID: rng.Uint32()}
	for i := rng.Intn(5); i > 0; i-- {
		f := rsnapFile{Meta: randMeta(rng), WBDirty: rng.Intn(2) == 0}
		if rng.Intn(3) == 0 {
			f.Deferred = "bridge: deferred write failed: rolled back to 12 durable blocks"
		}
		snap.Files = append(snap.Files, f)
	}
	for i := rng.Intn(4); i > 0; i-- {
		snap.Cursors = append(snap.Cursors, rsnapCursor{Client: randAddr(rng), Name: randName(rng), Pos: randInt64(rng)})
	}
	seen := map[msg.Addr]bool{}
	for i := rng.Intn(6); i > 0; i-- {
		x := rsnapSession{Client: randAddr(rng), Op: 1 + rng.Uint64()>>uint(1+rng.Intn(63))}
		if seen[x.Client] {
			continue
		}
		seen[x.Client] = true
		// A request's own record, a scatter's write items, or both.
		next := x.Op + uint64(rng.Intn(2))
		for j := rng.Intn(4); j > 0; j-- {
			r := opRec{Op: next, Rec: ropRec{
				Kind: randKind(rng), EOF: rng.Intn(2) == 0, Name: randName(rng), At: randInt64(rng), N: rng.Intn(64),
			}}
			if rng.Intn(2) == 0 {
				m := randMeta(rng)
				r.Rec.Meta = &m
			}
			if r.Rec.Kind == ropWBFail {
				r.Rec.ErrS = "bridge: deferred write"
			}
			x.Recs = append(x.Recs, r)
			next += 1 + uint64(rng.Intn(3))
		}
		snap.Sessions = append(snap.Sessions, x)
	}
	for i := rng.Intn(raftPendingFx + 1); i > 0; i-- {
		snap.Pending = append(snap.Pending, randRop(rng, randKind(rng)))
	}
	return snap
}

// codecCorpus is the seeded set of encodings the round-trip test checks and
// the fuzz targets start from: every kind several times over.
func codecCorpus() (rops []rop, snaps []rsnap) {
	rng := rand.New(rand.NewSource(1988))
	for round := 0; round < 8; round++ {
		for kind := ropCreate; kind <= ropFixup; kind++ {
			rops = append(rops, randRop(rng, kind))
		}
	}
	snaps = append(snaps, rsnap{})
	for i := 0; i < 24; i++ {
		snaps = append(snaps, randSnap(rng))
	}
	return rops, snaps
}

// checkStrict asserts that every strict prefix of enc, and enc with any one
// byte appended, is rejected.
func checkStrict(t *testing.T, what string, enc []byte, decode func([]byte) error) {
	t.Helper()
	for n := 0; n < len(enc); n++ {
		if decode(enc[:n]) == nil {
			t.Fatalf("%s: the %d-byte prefix of a %d-byte encoding decodes", what, n, len(enc))
		}
	}
	for _, extra := range []byte{0, 1, 0x80, 0xff} {
		if err := decode(append(enc[:len(enc):len(enc)], extra)); !errors.Is(err, errLogCorrupt) {
			t.Fatalf("%s: trailing byte %#x: err = %v, want errLogCorrupt", what, extra, err)
		}
	}
}

func TestLogCodecRoundTrip(t *testing.T) {
	rops, snaps := codecCorpus()
	again, snapsAgain := codecCorpus() // the same states, built independently
	var total int
	for i, op := range rops {
		enc := appendRop(nil, &op)
		total += len(enc)
		got, err := decodeRop(enc, nil, nil, nil)
		if err != nil {
			t.Fatalf("rop %d (kind %d): decode: %v", i, op.Kind, err)
		}
		if !reflect.DeepEqual(got, op) {
			t.Fatalf("rop %d (kind %d): round trip\n got %+v\nwant %+v", i, op.Kind, got, op)
		}
		if !bytes.Equal(enc, appendRop(nil, &again[i])) {
			t.Fatalf("rop %d: identical ops encode to different bytes", i)
		}
		if interned, err := decodeRop(enc, portTab{}, nil, nil); err != nil || !reflect.DeepEqual(interned, op) {
			t.Fatalf("rop %d: decode with a port table: %+v, %v", i, interned, err)
		}
		if op.Kind != ropWrite { // write payloads make the prefix sweep quadratic in kilobytes
			checkStrict(t, fmt.Sprintf("rop %d", i), enc, func(b []byte) error { _, err := decodeRop(b, nil, nil, nil); return err })
		}
	}
	for i, snap := range snaps {
		enc := appendSnap(nil, &snap)
		got, err := decodeSnap(enc, nil)
		if err != nil {
			t.Fatalf("snapshot %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("snapshot %d: round trip\n got %+v\nwant %+v", i, got, snap)
		}
		if !bytes.Equal(enc, appendSnap(nil, &snapsAgain[i])) {
			t.Fatalf("snapshot %d: identical states encode to different bytes", i)
		}
		if i < 6 {
			checkStrict(t, fmt.Sprintf("snapshot %d", i), enc, func(b []byte) error { _, err := decodeSnap(b, nil); return err })
		}
	}
	// Only a scatter's write items grew in format 2: any other entry is
	// format 1's bytes under the new version byte.
	w := rop{Kind: ropWrite, Client: msg.Addr{Port: "bridge.cli.3"}, Op: 4712, Name: "f", At: 1, N: 1, Data: [][]byte{{7}}}
	if enc := appendRop(nil, &w); enc[0] != logFormat || !bytes.Equal(enc[1:], format1Write[1:]) {
		t.Fatalf("a write with no Item encodes to %x, want format 1's %x", enc, format1Write)
	}
	// A directory operation without a payload is tens of bytes, not the
	// half kilobyte of a self-describing stream.
	small := rop{Kind: ropDelete, Client: msg.Addr{Node: 0, Port: "bridge.cli.3"}, Op: 4711, Name: "m3.17.4-a9"}
	if n := len(appendRop(nil, &small)); n > 64 {
		t.Fatalf("a delete encodes to %d bytes, want at most 64", n)
	}
}

// TestEncodeSnapshotMatchesAppendSnap: a member's snapshot holds its live
// sessions, oldest client first — a scatter's write items among them — and
// its bytes are what appendSnap makes of what it decodes to.
func TestEncodeSnapshotMatchesAppendSnap(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		for _, name := range []string{"a", "b", "c"} {
			if _, err := c.Create(name); err != nil {
				t.Errorf("Create(%s): %v", name, err)
				return
			}
		}
		if err := c.SeqWrite("a", payload(0)); err != nil {
			t.Errorf("SeqWrite: %v", err)
			return
		}
		if _, err := c.Delete("b"); err != nil {
			t.Errorf("Delete: %v", err)
			return
		}
		other := cl.NewClient(p, 0, "other")
		defer other.Close()
		if _, err := other.Scatter([]ScatterItem{
			{Name: "a", BlockNum: 1, Write: true, Data: payload(1)},
			{Name: "c", BlockNum: 0, Write: true, Data: payload(2)},
		}); err != nil {
			t.Errorf("Scatter: %v", err)
			return
		}
		p.Sleep(200 * time.Millisecond)
		for i, s := range cl.Servers {
			g := s.grp
			enc := s.encodeSnapshot()
			snap, err := decodeSnap(enc, nil)
			if err != nil {
				t.Errorf("member %d: decode: %v", i, err)
				return
			}
			want := make([]rsnapSession, 0, len(g.sess.q))
			for _, client := range g.sess.q {
				ss := g.sess.m[client]
				want = append(want, rsnapSession{Client: client, Op: ss.op, Recs: ss.held})
			}
			if len(want) != 2 || len(want[1].Recs) != 2 || !reflect.DeepEqual(snap.Sessions, want) {
				t.Errorf("member %d: sessions encoded as %+v, want %+v: two clients, the second's scatter of two items", i, snap.Sessions, want)
			}
			snap.Sessions = want
			if !bytes.Equal(enc, appendSnap(nil, &snap)) {
				t.Errorf("member %d: encodeSnapshot and appendSnap disagree", i)
			}
		}
	})
}

func TestLogCodecRejects(t *testing.T) {
	op := rop{Kind: ropOpen, Client: msg.Addr{Node: 1, Port: "c"}, Name: "f"}
	good := appendRop(nil, &op)
	item := appendRop(nil, &rop{Kind: ropWrite, Client: op.Client, Op: 5, Item: 2, Name: "f"})
	mutate := func(at int, v byte) []byte {
		b := bytes.Clone(good)
		b[at] = v
		return b
	}
	var fe *LogFormatError
	for _, tc := range []struct {
		what string
		data []byte
	}{
		{"empty", nil},
		{"kind zero", mutate(1, 0)},
		{"kind past the last", mutate(1, ropFixup+1)},
		{"boolean 2", mutate(len(good)-2, 2)},
		{"overlong varint", append(bytes.Clone(good[:2]), 0x82, 0x00)},
		{"length past the end", mutate(len(good)-1, 200)},
		// A scatter's write item, op 5 of request 3: its Item is byte 6.
		{"overlong item", append(append(bytes.Clone(item[:6]), 0x82, 0x00), item[7:]...)},
		{"item at its op", func() []byte { b := bytes.Clone(item); b[6] = 5; return b }()},
		{"item of op 0", func() []byte { b := bytes.Clone(item); b[5], b[6] = 0, 1; return b }()},
		{"item flagged zero", func() []byte { b := bytes.Clone(item); b[6] = 0; return b }()},
		{"item on a create", func() []byte { b := bytes.Clone(item); b[1] = ropCreate | itemFlag; return b }()},
	} {
		if _, err := decodeRop(tc.data, nil, nil, nil); !errors.Is(err, errLogCorrupt) || errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want errLogCorrupt", tc.what, err)
		}
	}
	if op, err := decodeRop(item, nil, nil, nil); err != nil || op.request() != 3 {
		t.Errorf("the scatter item decodes to %+v, %v; want request 3", op, err)
	}
	twice := rsnap{Sessions: []rsnapSession{{Client: op.Client, Op: 1}, {Client: op.Client, Op: 2}}}
	unordered := rsnap{Sessions: []rsnapSession{{Client: op.Client, Op: 1, Recs: []opRec{{Op: 3}, {Op: 2}}}}}
	for what, snap := range map[string]rsnap{"a client twice": twice, "records out of order": unordered} {
		for i := range snap.Sessions {
			for j := range snap.Sessions[i].Recs {
				snap.Sessions[i].Recs[j].Rec.Kind = ropWrite
			}
		}
		if _, err := decodeSnap(appendSnap(nil, &snap), nil); !errors.Is(err, errLogCorrupt) {
			t.Errorf("snapshot with %s: err = %v, want errLogCorrupt", what, err)
		}
	}
	// An image of an older format names its version rather than decoding
	// into garbage or panicking.
	decodeEntry := func(b []byte) error { _, err := decodeRop(b, nil, nil, nil); return err }
	decodeSnapshot := func(b []byte) error { _, err := decodeSnap(b, nil); return err }
	for _, tc := range []struct {
		what    string
		decode  func([]byte) error
		data    []byte
		version byte
	}{
		{"log entry in the old gob format", decodeEntry, oldGobRop, 0xff},
		{"snapshot in the old gob format", decodeSnapshot, oldGobRop, 0xff},
		{"write entry in format 1", decodeEntry, format1Write, 1},
		{"snapshot in format 1", decodeSnapshot, format1Snap, 1},
	} {
		if err := tc.decode(tc.data); !errors.As(err, &fe) || fe.Version != tc.version {
			t.Errorf("%s: err = %v, want a LogFormatError for version %d", tc.what, err, tc.version)
		}
	}
	// A count the record could not hold is refused before anything is
	// allocated for it.
	huge := []byte{logFormat, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeSnap(huge, nil); !errors.Is(err, errLogCorrupt) {
			t.Fatalf("oversized count: err = %v", err)
		}
	})
	if allocs > 4 {
		t.Errorf("rejecting an oversized count took %.0f allocations", allocs)
	}
}

// footprint counts what a decoded op holds in slices and strings; decoding
// may never conjure more of it than the input had bytes.
func (op *rop) footprint() int {
	n := len(op.Client.Port) + len(op.Name) + len(op.New) + len(op.ErrS) + op.Meta.footprint() + len(op.Data)
	for _, blk := range op.Data {
		n += len(blk)
	}
	return n
}

func (m *Meta) footprint() int {
	n := len(m.Name) + len(m.Nodes)
	if m.Chain != nil {
		n += len(m.Chain.LocalCounts)
	}
	return n
}

func FuzzDecodeRop(f *testing.F) {
	rops, _ := codecCorpus()
	for _, op := range rops {
		f.Add(appendRop(nil, &op))
	}
	f.Add(oldGobRop)
	f.Add(format1Write)
	f.Add(appendRop(nil, &rop{Kind: ropWrite, Client: msg.Addr{Port: "c"}, Op: 1<<32 + 9, Item: 3, Name: "f", N: 1, Data: [][]byte{{7}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := decodeRop(data, nil, nil, nil)
		if err != nil {
			return
		}
		if got := appendRop(nil, &op); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, got)
		}
		if n := op.footprint(); n > len(data) {
			t.Fatalf("%d bytes decoded into %d elements", len(data), n)
		}
		// Interning shares memory, never changes a value: decoded against a
		// directory holding its names and a node list its own extends, or
		// one that parts from its own at the last node, it is the same op.
		dir := map[string]*dirent{}
		for _, name := range []string{op.Name, op.New} {
			dir[name] = &dirent{meta: Meta{Name: strings.Clone(name)}}
		}
		nodes := append(slices.Clone(op.Meta.Nodes), 7)
		parted := slices.Clone(op.Meta.Nodes)
		if n := len(parted); n > 0 {
			parted[n-1]++
		}
		for _, nodes := range [][]msg.NodeID{nodes, parted} {
			if again, err := decodeRop(data, portTab{}, dir, nodes); err != nil || !reflect.DeepEqual(again, op) {
				t.Fatalf("decoded against a directory and node list: %+v, %v; want %+v", again, err, op)
			}
		}
	})
}

func FuzzRestoreSnapshot(f *testing.F) {
	_, snaps := codecCorpus()
	for _, snap := range snaps {
		f.Add(appendSnap(nil, &snap))
	}
	f.Add(oldGobRop)
	f.Add(format1Snap)
	scatter := rsnap{Sessions: []rsnapSession{{Client: msg.Addr{Port: "c"}, Op: 1<<32 + 6,
		Recs: []opRec{{Op: 1<<32 + 7, Rec: ropRec{Kind: ropWrite, N: 1}}, {Op: 1<<32 + 9, Rec: ropRec{Kind: ropWrite, N: 1}}}}}}
	f.Add(appendSnap(nil, &scatter))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Server{grp: &member{}}
		err := s.restore(data)
		snap, derr := decodeSnap(data, nil)
		if (err == nil) != (derr == nil) {
			t.Fatalf("restore: %v, decode: %v", err, derr)
		}
		if err != nil {
			if s.dir != nil {
				t.Fatal("a rejected snapshot changed the directory")
			}
			return
		}
		if got := appendSnap(nil, &snap); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, got)
		}
		n := len(snap.Files) + len(snap.Cursors) + len(snap.Sessions) + len(snap.Pending)
		for i := range snap.Sessions {
			n += len(snap.Sessions[i].Client.Port) + len(snap.Sessions[i].Recs)
		}
		for i := range snap.Files {
			n += snap.Files[i].Meta.footprint() + len(snap.Files[i].Deferred)
		}
		for i := range snap.Pending {
			n += snap.Pending[i].footprint()
		}
		if n > len(data) {
			t.Fatalf("%d bytes decoded into %d elements", len(data), n)
		}
	})
}

// tamper rewrites crashed member j's stored consensus state: the edited
// state goes back as one edit that replaces the snapshot and the whole log.
func tamper(t *testing.T, cl *Cluster, j int, edit func(*raft.State)) {
	t.Helper()
	store := cl.boots[j].spec.store
	st, ok, err := store.Load(nil)
	if err != nil || !ok {
		t.Fatalf("member %d has no stored state (ok=%v err=%v)", j, ok, err)
	}
	edit(&st)
	if err := store.Save(nil, raft.Edit{
		Term: st.Term, VotedFor: st.VotedFor,
		Snap: true, SnapIndex: st.SnapIndex, SnapTerm: st.SnapTerm, Snapshot: st.Snapshot,
		From: st.SnapIndex + 1, Entries: st.Entries,
	}); err != nil {
		t.Fatal(err)
	}
}

// awaitFault spins virtual time until member j has halted itself.
func awaitFault(t *testing.T, p sim.Proc, cl *Cluster, j int) error {
	t.Helper()
	for deadline := p.Now() + 5*time.Second; p.Now() < deadline; p.Sleep(10 * time.Millisecond) {
		if err := cl.Servers[j].Fault(); err != nil {
			return err
		}
	}
	t.Fatalf("member %d still runs 5s after its log was corrupted", j)
	return nil
}

// TestUndecodableEntryHaltsMember: a committed entry that does not decode
// must not be skipped — the member would silently fork from its peers. It
// records the index and stops; the rest of the group carries on.
func TestUndecodableEntryHaltsMember(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		for _, name := range []string{"a", "b", "c"} {
			if _, err := c.Create(name); err != nil {
				t.Fatalf("Create(%s): %v", name, err)
			}
		}
		p.Sleep(200 * time.Millisecond)
		victim := (awaitLeader(t, p, cl) + 1) % 3
		cl.CrashServer(0, victim, p.Now())
		var bad uint64
		tamper(t, cl, victim, func(st *raft.State) {
			for i := range st.Entries {
				if st.Entries[i].Data != nil {
					bad = st.Entries[i].Index
					st.Entries[i].Data = append(bytes.Clone(st.Entries[i].Data), 0)
					return
				}
			}
			t.Fatal("no payload-carrying entry retained")
		})
		cl.RestartServer(0, victim)
		err := awaitFault(t, p, cl, victim)
		if !errors.Is(err, errLogCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("entry %d", bad)) {
			t.Fatalf("fault = %v, want errLogCorrupt naming entry %d", err, bad)
		}
		if cl.Servers[victim].IsLeader() {
			t.Fatal("the halted member still claims leadership")
		}
		if _, err := c.Create("d"); err != nil {
			t.Fatalf("Create after one member halted: %v", err)
		}
	})
}

// TestOldFormatSnapshotFailsLoad: a member restarted over a snapshot in the
// old gob format stays down with the typed error, instead of panicking or
// booting an empty directory. TestFormat1EntryFailsLoad is its sibling for
// a log entry of the format before sessions.
func TestOldFormatSnapshotFailsLoad(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("a"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		p.Sleep(200 * time.Millisecond)
		victim := (awaitLeader(t, p, cl) + 1) % 3
		cl.CrashServer(0, victim, p.Now())
		tamper(t, cl, victim, func(st *raft.State) {
			last := st.Entries[len(st.Entries)-1]
			st.SnapIndex, st.SnapTerm, st.Snapshot, st.Entries = last.Index, last.Term, oldGobRop, nil
		})
		cl.RestartServer(0, victim)
		var fe *LogFormatError
		if err := awaitFault(t, p, cl, victim); !errors.As(err, &fe) || fe.Version != 0xff {
			t.Fatalf("fault = %v, want a LogFormatError for version 255", err)
		}
		if _, err := c.Create("b"); err != nil {
			t.Fatalf("Create after one member stayed down: %v", err)
		}
	})
}

// TestFormat1EntryFailsLoad: a member restarted over a log entry of format
// 1, a write whose scatter request id it cannot know, stays down with a
// LogFormatError for version 1 instead of misreading it.
func TestFormat1EntryFailsLoad(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("a"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		p.Sleep(200 * time.Millisecond)
		victim := (awaitLeader(t, p, cl) + 1) % 3
		cl.CrashServer(0, victim, p.Now())
		tamper(t, cl, victim, func(st *raft.State) {
			for i := range st.Entries {
				if st.Entries[i].Data != nil {
					st.Entries[i].Data = format1Write
					return
				}
			}
			t.Fatal("no payload-carrying entry retained")
		})
		cl.RestartServer(0, victim)
		var fe *LogFormatError
		if err := awaitFault(t, p, cl, victim); !errors.As(err, &fe) || fe.Version != 1 {
			t.Fatalf("fault = %v, want a LogFormatError for version 1", err)
		}
		if _, err := c.Create("b"); err != nil {
			t.Fatalf("Create after one member stayed down: %v", err)
		}
	})
}
