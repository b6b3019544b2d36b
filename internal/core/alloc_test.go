//go:build !race

package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"bridge/internal/distrib"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// TestAllocsScatter is test (f): a 3-item write scatter allocates no more
// than the three WriteAts it replaces. The file is left out under the race
// detector, whose instrumentation allocates (a build constraint and not
// israce.Enabled, because bridgevet loads this package's tests without
// build tags and would see both of israce's files).
func TestAllocsScatter(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		items := make([]ScatterItem, 3)
		for f := range items {
			name := fmt.Sprintf("f%d", f)
			if _, err := c.CreateSpec(name, distrib.Spec{Start: f}, false); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if err := c.WriteAt(name, 0, payload(f)); err != nil {
				t.Errorf("WriteAt: %v", err)
				return
			}
			items[f] = ScatterItem{Name: name, BlockNum: 0, Write: true, Data: payload(f)}
		}
		single := testing.AllocsPerRun(200, func() {
			for _, it := range items {
				if err := c.WriteAt(it.Name, it.BlockNum, it.Data); err != nil {
					t.Errorf("WriteAt: %v", err)
				}
			}
		})
		scatter := testing.AllocsPerRun(200, func() {
			if res, err := c.Scatter(items); err != nil || res != nil {
				t.Errorf("Scatter: %v, %v", res, err)
			}
		})
		t.Logf("3-item write scatter %v objects, three WriteAts %v", scatter, single)
		if scatter > single {
			t.Errorf("a 3-item write scatter allocates %v objects, three WriteAts %v", scatter, single)
		}
	})
}

// boxed keeps a reply alive as Message.Body would; noErr is a success the
// compiler cannot see through.
var (
	boxed any
	noErr error
)

// TestAllocsBoxedReplies guards the representation of msg.Status. Every
// reply is boxed into Message.Body, so what a success costs there is paid on
// every call: an acknowledgement — a reply that is nothing but its status —
// must fit the interface word and allocate nothing, and a reply with a
// payload allocates only itself. A status of two words (a code beside a
// string, say) costs naive_write one allocation per op.
func TestAllocsBoxedReplies(t *testing.T) {
	data := payload(1)
	meta := Meta{Name: "f"}
	for _, tc := range []struct {
		name string
		box  func()
		want float64
	}{
		{"SeqWriteResp", func() { boxed = SeqWriteResp{Status: statusFor(noErr)} }, 0},
		{"RandWriteResp", func() { boxed = RandWriteResp{Status: statusFor(noErr)} }, 0},
		{"SeqReadResp", func() { boxed = SeqReadResp{Data: data, Status: statusFor(noErr)} }, 1},
		{"RandReadResp", func() { boxed = RandReadResp{Data: data, Status: statusFor(noErr)} }, 1},
		{"CreateResp", func() { boxed = CreateResp{Meta: meta, Status: statusFor(noErr)} }, 1},
	} {
		if got := testing.AllocsPerRun(100, tc.box); got != tc.want {
			t.Errorf("boxing a successful %s allocates %v objects, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAllocsStream guards what the windowed stream costs its policies. On a
// server of the test's own process, over one file's first window (8 blocks on
// four nodes of paper-speed disks): a Step that finds no reply allocates
// nothing; a read-ahead fill (prefetch, then fill) allocates no more than
// lfsReadN of the same blocks; and a write-behind landing (arm, then idle
// steps until it has landed) no more than lfsWriteN of them.
func TestAllocsStream(t *testing.T) {
	const stripes, p4 = 2, 4
	const window = stripes * p4
	withCluster(t, wrenCfg(p4), func(p sim.Proc, cl *Cluster, c *Client) {
		payloads := make([][]byte, window)
		for i := range payloads {
			payloads[i] = payload(i)
		}
		if _, err := c.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if _, err := c.AppendN("f", payloads); err != nil {
			t.Errorf("AppendN: %v", err)
			return
		}
		s := &Server{net: cl.Net, m: newSrvMetrics(obs.NewRegistry()), wb: newWBCache(stripes)}
		s.lc = lfs.NewClient(p, cl.Net, 0, "allocs-lfs")
		defer s.lc.C.Close()
		s.vec = vecStream{C: s.lc, Finish: func(_ *lfs.Client, c vecCall) (*msg.Message, error) { return s.lfsFinish(p, c.lfsPend) }}
		ent := &dirent{meta: cl.Servers[0].dir["f"].meta, hints: make(map[msg.NodeID]int32)}

		ra, re := newRACache(stripes), &raEntry{st: s.newStream()}
		if !ra.prefetch(s, ent, re) {
			t.Error("no window to prefetch")
			return
		}
		miss := testing.AllocsPerRun(100, func() {
			if re.st.Step() {
				t.Error("a step took a reply before any disk answered")
			}
		})
		re.st.Drop()

		readN := testing.AllocsPerRun(50, func() {
			if _, err := s.lfsReadN(ent, 0, window); err != nil {
				t.Errorf("lfsReadN: %v", err)
			}
		})
		fill := testing.AllocsPerRun(50, func() {
			re.next, re.blocks = 0, nil
			ra.prefetch(s, ent, re)
			ra.fill(s, ent, re, 0)
			if len(re.blocks) != window {
				t.Errorf("fill buffered %d blocks, want %d", len(re.blocks), window)
			}
		})

		writeN := testing.AllocsPerRun(50, func() {
			if n, err := s.lfsWriteN(ent, 0, payloads); err != nil || n != window {
				t.Errorf("lfsWriteN: %d, %v", n, err)
			}
		})
		we := &wbEntry{ent: ent, st: s.newStream()}
		landing := testing.AllocsPerRun(50, func() {
			s.wb.entries["f"] = we
			we.bufStart, we.buf = 0, payloads
			if err := s.wbArm(we); err != nil {
				t.Errorf("wbArm: %v", err)
				return
			}
			for len(s.wb.armed) > 0 {
				if !s.wbStep(p) {
					p.Sleep(time.Millisecond)
				}
			}
		})
		t.Logf("step miss %v; fill %v, lfsReadN %v; landing %v, lfsWriteN %v objects", miss, fill, readN, landing, writeN)
		if miss != 0 {
			t.Errorf("a step that finds nothing allocates %v objects", miss)
		}
		if fill > readN {
			t.Errorf("a read-ahead fill allocates %v objects, lfsReadN of the same blocks %v", fill, readN)
		}
		if landing > writeN {
			t.Errorf("a write-behind landing allocates %v objects, lfsWriteN of the same blocks %v", landing, writeN)
		}
		if pending, _ := s.lc.C.Parked(); pending != 0 {
			t.Errorf("%d replies parked after the windows were taken", pending)
		}
	})
}

// TestAllocsReadAhead guards what serving a sequential reader from read-ahead
// allocates per block: a detached server reads a file four times the nodes'
// caches window by window through its cache, topping the reader up after
// each request as the request loop does, so every block but the first
// window's arrives in a prefetched run. What it counts is the server's and
// the storage nodes' work together — the runs' requests, replies, track reads
// and buffers. The bound sits halfway between the figure with a run of two
// windows per call (2.64 objects) and with one (4.13).
func TestAllocsReadAhead(t *testing.T) {
	const p4, stripes, blocks = 4, 2, 2048
	const window = stripes * p4
	withCluster(t, wrenCfg(p4), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		for at := 0; at < blocks; at += 64 {
			batch := make([][]byte, 64)
			for i := range batch {
				batch[i] = payload(at + i)
			}
			if _, err := c.AppendN("f", batch); err != nil {
				t.Errorf("AppendN: %v", err)
				return
			}
		}
		s := &Server{net: cl.Net, m: newSrvMetrics(obs.NewRegistry()), ra: newRACache(stripes)}
		s.lc = lfs.NewClient(p, cl.Net, 0, "allocs-lfs")
		defer s.lc.C.Close()
		s.vec = vecStream{C: s.lc, Finish: func(_ *lfs.Client, c vecCall) (*msg.Message, error) { return s.lfsFinish(p, c.lfsPend) }}
		ent := &dirent{meta: cl.Servers[0].dir["f"].meta, hints: make(map[msg.NodeID]int32)}
		reader := msg.Addr{Node: 0, Port: "allocs-reader"}
		pass := func() {
			for pos := int64(0); pos < blocks; pos += window {
				got, err := s.ra.read(s, ent, reader, pos, window)
				if err != nil || len(got) != window {
					t.Errorf("read at %d: %d blocks, %v", pos, len(got), err)
					return
				}
				s.raAhead(p, 0, 0)
			}
		}
		pass() // the first pass warms the node's free lists and maps
		perBlock := testing.AllocsPerRun(4, pass) / blocks
		t.Logf("%.3f objects per block served from read-ahead", perBlock)
		if perBlock > 3.4 {
			t.Errorf("serving from read-ahead allocates %.3f objects per block, want <= 3.4", perBlock)
		}
		if pending, _ := s.lc.C.Parked(); pending != 0 {
			t.Errorf("%d replies parked after the reader reached the end", pending)
		}
	})
}

// TestAllocsCommandTable guards what reading the command table costs a
// request: finding its entry, its span name, its price, the name it routes
// by and its operation id allocate nothing, and a reply built from the table
// that carries only a status boxes like a hand-written one.
func TestAllocsCommandTable(t *testing.T) {
	var req any = SeqWriteReq{Name: "f", Data: payload(1), OpID: 3}
	var resp any = SeqReadResp{Data: payload(1)}
	create := commands.Of(CreateReq{})
	c := commands.Of(req)
	var name string
	var n int
	var op uint64
	for _, tc := range []struct {
		name string
		run  func()
		want float64
	}{
		{"entry", func() { c = commands.Of(req) }, 0},
		{"name", func() { name = commands.Of(req).Name }, 0},
		{"request price", func() { n = WireSize(req) }, 0},
		{"reply price", func() { n = WireSize(resp) }, 0},
		{"route", func() { name, _ = c.Route(req) }, 0},
		{"op id", func() { op = c.OpID(req) }, 0},
		// Like the literals of TestAllocsBoxedReplies: an acknowledgement
		// fits the interface word, a reply with a payload is one object.
		{"status-only SeqWriteResp", func() { boxed = c.Status(statusFor(noErr)) }, 0},
		{"status-only CreateResp", func() { boxed = create.Status(statusFor(noErr)) }, 1},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got != tc.want {
			t.Errorf("%s allocates %v objects, want %v", tc.name, got, tc.want)
		}
	}
	if _, ok := c.Status(msg.Status{}).(SeqWriteResp); !ok || name != "f" || n != 16+len(payload(1)) || op != 3 {
		t.Errorf("the table answered %q, %d, %d", name, n, op)
	}
}

// TestAllocsSessionDedup guards both group sizes' client sessions. In a
// group of one, answering a retransmission from the session and replacing a
// client's session with its next operation allocate nothing, so keeping one
// reply per client costs no more per request than the reply itself. In a
// member, healing a retransmission from its record, finding a request stale
// and replacing a session's records with the next request's allocate
// nothing either. (The stale refusal's reply then carries a formatted
// status, as every failure does.)
func TestAllocsSessionDedup(t *testing.T) {
	withCluster(t, fastCfg(1), func(p sim.Proc, cl *Cluster, c *Client) {
		srv := cl.Servers[0]
		var ok any = SeqWriteResp{}
		type opBody struct{ op uint64 }
		body := &opBody{op: 1}
		cmd := &command{
			OpID:  func(req any) uint64 { return req.(*opBody).op },
			Serve: func(*Server, sim.Proc, msg.Addr, any) any { return ok },
		}
		req := &msg.Message{From: c.mc.Addr(), Body: body}
		srv.dispatch(p, req, cmd)
		hits := srv.m.dedupHits.Value()
		if got := testing.AllocsPerRun(100, func() { boxed = srv.dispatch(p, req, cmd) }); got != 0 {
			t.Errorf("a dedup hit allocates %v objects, want 0", got)
		}
		if srv.m.dedupHits.Value() == hits {
			t.Error("the retransmissions were not answered from the session")
		}
		if got := testing.AllocsPerRun(100, func() { body.op++; boxed = srv.dispatch(p, req, cmd) }); got != 0 {
			t.Errorf("replacing a client's session allocates %v objects, want 0", got)
		}
		if s := srv.sessions.m[req.From]; s.op != body.op || len(srv.sessions.m) != 1 {
			t.Errorf("session %+v of %d; want op %d, one client", s, len(srv.sessions.m), body.op)
		}
	})
	withCluster(t, repCfg(1), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := c.SeqWrite("f", payload(0)); err != nil {
			t.Errorf("SeqWrite: %v", err)
			return
		}
		srv := cl.Servers[awaitLeader(t, p, cl)]
		g, op := srv.grp, c.nextOp
		var body any = SeqWriteReq{Name: "f", Data: payload(0), OpID: op}
		req, cmd := &msg.Message{From: c.mc.Addr(), Body: body}, commands.Of(body)
		heals := g.rm.heals.Value()
		var done bool
		if got := testing.AllocsPerRun(100, func() { boxed, done = srv.admit(p, req, cmd, op) }); got != 0 {
			t.Errorf("a member's heal allocates %v objects, want 0", got)
		}
		if r, isWrite := boxed.(SeqWriteResp); !done || !isWrite || !r.OK() || g.rm.heals.Value() == heals {
			t.Errorf("the retransmission answered %+v (done %v); want a healed SeqWriteResp", boxed, done)
		}
		var d int
		if got := testing.AllocsPerRun(100, func() { _, d = g.sess.check(req.From, op-1) }); got != 0 || d >= 0 {
			t.Errorf("finding op %d stale allocates %v objects (compared %d), want 0 (below 0)", op-1, got, d)
		}
		// Replacing records runs in apply on every member; a detached
		// member keeps the group's own state untouched.
		m := &member{}
		next := rop{Kind: ropWrite, Client: req.From, Op: op}
		m.record(next, ropRec{Kind: ropWrite, N: 1}, nil)
		if got := testing.AllocsPerRun(100, func() {
			next.Op++
			m.record(next, ropRec{Kind: ropWrite, N: 1}, nil)
		}); got != 0 {
			t.Errorf("replacing a member's session allocates %v objects, want 0", got)
		}
		if ss := m.sess.m[req.From]; ss.op != next.Op || len(ss.held) != 1 || len(m.sess.m) != 1 {
			t.Errorf("session at %d holding %d records, of %d; want op %d, one record, one client", ss.op, len(ss.held), len(m.sess.m), next.Op)
		}
	})
}

// TestAllocsServerWrite guards the bytes a server write allocates per block,
// every process of the cluster counted: on a group of one over unjournaled
// volumes, rewrites of blocks that exist, whose images the disk and EFS
// rewrite in place, so what is left is the path above them. The Bridge
// header travels beside the client's payload down to EFS; a 1 KB block
// built for it above the LFS costs about 1000 bytes a block more than the
// bounds allow. Each bound sits halfway between the figure with that block
// (WriteAt 1752, WriteAtN(8) 1451 B) and the figure without it (776, 491).
func TestAllocsServerWrite(t *testing.T) {
	const blocks, rounds, vec = 64, 16, 8
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		data := make([][]byte, blocks)
		for i := range data {
			data[i] = bytes.Repeat([]byte{byte(i)}, PayloadBytes)
		}
		if _, err := c.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if _, err := c.AppendN("f", data); err != nil {
			t.Errorf("AppendN: %v", err)
			return
		}
		perBlock := func(pass func() error) float64 {
			if err := pass(); err != nil { // the first rewrite warms every cache
				t.Error(err)
				return 0
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < rounds; r++ {
				if err := pass(); err != nil {
					t.Error(err)
					return 0
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / (rounds * blocks)
		}
		one := perBlock(func() error {
			for i, d := range data {
				if err := c.WriteAt("f", int64(i), d); err != nil {
					return fmt.Errorf("WriteAt %d: %w", i, err)
				}
			}
			return nil
		})
		batched := perBlock(func() error {
			for i := 0; i < blocks; i += vec {
				if n, err := c.WriteAtN("f", int64(i), data[i:i+vec]); err != nil || n != vec {
					return fmt.Errorf("WriteAtN at %d: %d, %w", i, n, err)
				}
			}
			return nil
		})
		t.Logf("bytes per block: WriteAt %.0f, WriteAtN(%d) %.0f", one, vec, batched)
		if one > 1264 {
			t.Errorf("WriteAt allocates %.0f bytes per block, want <= 1264", one)
		}
		if batched > 971 {
			t.Errorf("WriteAtN(%d) allocates %.0f bytes per block, want <= 971", vec, batched)
		}
	})
}

// TestAllocsReplicatedApply guards what a member's decoder allocates for the
// directory churn of a metadata workload. The create, open and delete of one
// file that a 3-member group committed are decoded again against a detached
// directory, and the create and the delete applied to it: the create
// allocates exactly one name, which its dirent, its Meta and its session
// record share, and its node list is the server's; the open and the delete
// allocate no name and no node list. Decoding and applying the create and
// the delete again costs 2 objects, that name and the dirent (the session,
// which holds the later delete's request, records no repeat of the create);
// a decoder that copies every name and node list, and a dirent that makes
// its hints map at once, make it 8.
func TestAllocsReplicatedApply(t *testing.T) {
	const name = "churn-00042" // a one-byte string would never allocate
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		for _, step := range []func() error{
			func() error { _, err := c.Create(name); return err },
			func() error { _, err := c.Open(name); return err },
			func() error { _, err := c.Delete(name); return err },
		} {
			if err := step(); err != nil {
				t.Errorf("churn: %v", err)
				return
			}
		}
		srv := cl.Servers[awaitLeader(t, p, cl)]
		entries := map[uint8][]byte{}
		for _, e := range srv.grp.node.CommittedSince(0) {
			if op, err := decodeRop(e.Data, nil, nil, nil); err == nil && op.Name == name {
				entries[op.Kind] = e.Data
			}
		}
		if len(entries) != 3 {
			t.Errorf("the group committed %d of the create, open and delete of %s", len(entries), name)
			return
		}
		s := &Server{dir: map[string]*dirent{}, cursors: map[cursorKey]*cursor{}, nodes: srv.nodes, nextID: srv.nextID, grp: &member{ports: portTab{}}}
		decode := func(kind uint8) (op rop, allocs float64) {
			allocs = testing.AllocsPerRun(100, func() {
				var err error
				if op, err = decodeRop(entries[kind], s.grp.ports, s.dir, s.nodes); err != nil {
					t.Fatalf("decode: %v", err)
				}
			})
			return op, allocs
		}
		shared := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
		onNodes := func(l []msg.NodeID) bool { return len(l) > 0 && &l[0] == &s.nodes[0] }

		create, allocs := decode(ropCreate)
		if allocs != 1 || !shared(create.Name, create.Meta.Name) || !onNodes(create.Meta.Nodes) {
			t.Errorf("decoding a create allocates %v objects, want 1: one name its Meta shares, and the server's node list", allocs)
		}
		s.apply(create)
		ent := s.dir[name]
		if rec := s.grp.sess.m[create.Client].held[0].Rec; !shared(ent.meta.Name, create.Name) || !shared(rec.Name, create.Name) || !onNodes(ent.meta.Nodes) {
			t.Error("applying the create copied its name or its node list")
		}
		open, allocs := decode(ropOpen)
		if allocs != 0 || !shared(open.Name, ent.meta.Name) {
			t.Errorf("decoding an open allocates %v objects, want 0: the dirent's name", allocs)
		}
		del, allocs := decode(ropDelete)
		if allocs != 0 || !shared(del.Name, ent.meta.Name) || !shared(del.Meta.Name, ent.meta.Name) || !onNodes(del.Meta.Nodes) {
			t.Errorf("decoding a delete allocates %v objects, want 0: the dirent's name, the server's node list", allocs)
		}
		s.apply(del)
		churn := testing.AllocsPerRun(100, func() {
			for _, kind := range []uint8{ropCreate, ropDelete} {
				op, err := decodeRop(entries[kind], s.grp.ports, s.dir, s.nodes)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				s.apply(op)
			}
		})
		if churn > 2 || len(s.dir) != 0 {
			t.Errorf("decoding and applying a create and a delete allocates %v objects, want at most 2 (%d files left)", churn, len(s.dir))
		}
	})
}
