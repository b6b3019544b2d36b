//go:build !race

package core

import (
	"fmt"
	"testing"
	"time"

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

// TestAllocsSessionDedup guards a group of one's client sessions: answering
// a retransmission from the session and replacing a client's session with its
// next operation allocate nothing, so keeping one reply per client costs no
// more per request than the reply itself.
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
		if s := srv.sessions[req.From]; s.op != body.op || len(srv.sessions) != 1 {
			t.Errorf("session %+v of %d; want op %d, one client", s, len(srv.sessions), body.op)
		}
	})
}
