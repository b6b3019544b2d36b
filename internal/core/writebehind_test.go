package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/distrib"
	"bridge/internal/msg"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// wbCfg is a fast cluster with server write-behind on.
func wbCfg(p, stripes int) ClusterConfig {
	cfg := fastCfg(p)
	cfg.Server = Config{WriteBehind: stripes}
	return cfg
}

// Acknowledged appends must be fully readable and counted: every read and
// size query drains the buffer first, and an explicit Flush reports how
// many blocks it pushed down.
func TestWriteBehindRoundTrip(t *testing.T) {
	withCluster(t, wbCfg(4, 2), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		const n = 30
		for i := 0; i < n; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}
		meta, err := c.Stat("f")
		if err != nil || meta.Blocks != n {
			t.Fatalf("Stat = %+v, %v; want %d blocks", meta, err, n)
		}
		if _, err := c.Open("f"); err != nil {
			t.Fatalf("Open: %v", err)
		}
		for i := 0; i < n; i++ {
			data, eof, err := c.SeqRead("f")
			if err != nil || eof || !bytes.Equal(data, payload(i)) {
				t.Fatalf("read %d: eof=%v err=%v", i, eof, err)
			}
		}
		if _, eof, err := c.SeqRead("f"); err != nil || !eof {
			t.Fatalf("expected EOF, got eof=%v err=%v", eof, err)
		}

		// The reads drained the buffer, so a flush now has nothing to push.
		if flushed, err := c.Flush("f"); err != nil || flushed != 0 {
			t.Fatalf("Flush after drain = %d, %v; want 0", flushed, err)
		}
		// Three more acknowledged appends flush on the explicit barrier.
		for i := n; i < n+3; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}
		if flushed, err := c.Flush("f"); err != nil || flushed != 3 {
			t.Fatalf("Flush = %d, %v; want 3", flushed, err)
		}
		if flushed, err := c.FlushAll(); err != nil || flushed != 0 {
			t.Fatalf("FlushAll = %d, %v; want 0", flushed, err)
		}
	})
}

// With write-behind and read-ahead both on, no read may ever see data the
// write path still owns: overwrites drain the buffer and invalidate the
// read windows before touching the LFS layer, and appends acknowledged
// into the buffer are visible to the very next read.
func TestWriteBehindNeverServesStaleReads(t *testing.T) {
	cfg := fastCfg(4)
	cfg.Server = Config{ReadAhead: 2, WriteBehind: 2}
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		const n = 24
		for i := 0; i < n; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}
		if _, err := c.Open("f"); err != nil {
			t.Fatalf("Open: %v", err)
		}
		// Warm the read-ahead window, then overwrite a block it covers.
		for i := 0; i < 4; i++ {
			data, _, err := c.SeqRead("f")
			if err != nil || !bytes.Equal(data, payload(i)) {
				t.Fatalf("warm read %d: %v", i, err)
			}
		}
		if err := c.WriteAt("f", 5, payload(105)); err != nil {
			t.Fatalf("WriteAt 5: %v", err)
		}
		for i := 4; i < n; i++ {
			want := payload(i)
			if i == 5 {
				want = payload(105)
			}
			data, eof, err := c.SeqRead("f")
			if err != nil || eof || !bytes.Equal(data, want) {
				t.Fatalf("read %d after overwrite: eof=%v err=%v", i, eof, err)
			}
		}
		// Appends acknowledged into the buffer are visible immediately:
		// the cursor sits at EOF, so these reads only see the new blocks
		// if the size advanced and the data is served fresh.
		for i := n; i < n+4; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}
		for i := n; i < n+4; i++ {
			data, eof, err := c.SeqRead("f")
			if err != nil || eof || !bytes.Equal(data, payload(i)) {
				t.Fatalf("read %d after buffered append: eof=%v err=%v", i, eof, err)
			}
		}
	})
}

// A group commit that fails after its blocks were acknowledged surfaces
// exactly once, wrapped in ErrDeferredWrite, with the file rolled back to
// the landed prefix; the next operation proceeds cleanly.
func TestWriteBehindDeferredErrorSurfacesOnce(t *testing.T) {
	withCluster(t, wbCfg(4, 2), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		// Window is 8: blocks 0..15 land via the first two group commits,
		// 16..19 are acknowledged but still buffered when the node dies.
		for i := 0; i < 20; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}
		cl.FailNode(1)

		if _, err := c.ReadAt("f", 0); !errors.Is(err, ErrDeferredWrite) {
			t.Fatalf("first op after failed commit = %v; want ErrDeferredWrite", err)
		}
		// The failure was consumed: block 0 lives on a healthy node and
		// reads cleanly now.
		data, err := c.ReadAt("f", 0)
		if err != nil || !bytes.Equal(data, payload(0)) {
			t.Fatalf("ReadAt 0 after rollback: %v", err)
		}
		if data, err := c.ReadAt("f", 15); err != nil || !bytes.Equal(data, payload(15)) {
			t.Fatalf("ReadAt 15 (landed before failure): %v", err)
		}
		// The rolled-back tail is gone.
		if _, err := c.ReadAt("f", 19); !errors.Is(err, ErrEOF) {
			t.Fatalf("ReadAt 19 = %v; want ErrEOF after rollback", err)
		}
	})
}

// Deleting a file with buffered writes quiesces them; a recreated file
// under the same name never sees the old data.
func TestWriteBehindDeleteThenRecreate(t *testing.T) {
	withCluster(t, wbCfg(4, 2), func(p sim.Proc, cl *Cluster, c *Client) {
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("Create: %v", err)
		}
		for i := 0; i < 10; i++ {
			if err := c.SeqWrite("f", payload(i)); err != nil {
				t.Fatalf("SeqWrite %d: %v", i, err)
			}
		}
		if _, err := c.Delete("f"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := c.Create("f"); err != nil {
			t.Fatalf("recreate: %v", err)
		}
		for i := 0; i < 6; i++ {
			if err := c.SeqWrite("f", payload(100+i)); err != nil {
				t.Fatalf("SeqWrite new %d: %v", i, err)
			}
		}
		meta, err := c.Stat("f")
		if err != nil || meta.Blocks != 6 {
			t.Fatalf("Stat = %+v, %v; want 6 blocks", meta, err)
		}
		for i := 0; i < 6; i++ {
			data, err := c.ReadAt("f", int64(i))
			if err != nil || !bytes.Equal(data, payload(100+i)) {
				t.Fatalf("ReadAt %d: stale or failed read: %v", i, err)
			}
		}
	})
}

// With paper-speed disks, write-behind must make acknowledged appends
// substantially cheaper than the naive synchronous path: the group
// commits overlap the client's feed, so the visible cost converges on the
// request round trip.
func TestWriteBehindSpeedsUpAppends(t *testing.T) {
	const n = 64
	elapsed := func(cfg ClusterConfig) (d int64) {
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			if _, err := c.Create("f"); err != nil {
				t.Fatalf("Create: %v", err)
			}
			start := p.Now()
			for i := 0; i < n; i++ {
				if err := c.SeqWrite("f", payload(i)); err != nil {
					t.Fatalf("SeqWrite %d: %v", i, err)
				}
			}
			if _, err := c.Flush("f"); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			d = int64(p.Now() - start)
		})
		return d
	}
	naive := elapsed(wrenCfg(4))
	wb := wrenCfg(4)
	wb.Server = Config{WriteBehind: 2}
	behind := elapsed(wb)
	if behind*3 >= naive {
		t.Fatalf("write-behind %dns vs naive %dns: want at least 3x faster", behind, naive)
	}
}

// wbStepProgram appends windows of single blocks to each of files in turn,
// one block at a time, on stream_write's shape — eight nodes with 15 ms
// disks, 32-block windows — under a span recorder, and ends with FlushAll.
// It returns each append's duration as the client saw it and the spans.
func wbStepProgram(t *testing.T, files []string, windows int) (appends []time.Duration, spans []obs.Span) {
	const nodes, stripes = 8, 4
	cfg := wrenCfg(nodes)
	cfg.Server.WriteBehind = stripes
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		for _, f := range files {
			if _, err := c.Create(f); err != nil {
				t.Errorf("Create %s: %v", f, err)
				return
			}
		}
		rec := obs.NewRecorder(obs.Config{})
		cl.Net.SetRecorder(rec)
		defer cl.Net.SetRecorder(nil)
		for i := 0; i < windows*nodes*stripes; i++ {
			for _, f := range files {
				start := p.Now()
				if err := c.SeqWrite(f, payload(i)); err != nil {
					t.Errorf("SeqWrite %s %d: %v", f, i, err)
					return
				}
				appends = append(appends, p.Now()-start)
			}
		}
		if _, err := c.FlushAll(); err != nil {
			t.Errorf("FlushAll: %v", err)
		}
		spans = rec.Spans()
	})
	return appends, spans
}

// wbSteps sorts a run's server.wbflush spans by the window they stepped —
// the request that armed it, in arming order — and marks the steps that
// started a node's write (an lfs.writevec under them) as sends.
func wbSteps(spans []obs.Span) (windows []obs.SpanID, steps map[obs.SpanID][]obs.Span, sends map[obs.SpanID]bool) {
	kinds := map[obs.SpanID]string{}
	steps, sends = map[obs.SpanID][]obs.Span{}, map[obs.SpanID]bool{}
	for _, sp := range spans {
		kinds[sp.ID] = sp.Kind
	}
	for _, sp := range spans {
		if sp.Kind == "lfs.writevec" && kinds[sp.Parent] == "server.wbflush" {
			sends[sp.Parent] = true
		}
		if sp.Kind == "server.wbflush" {
			if steps[sp.Parent] == nil {
				windows = append(windows, sp.Parent)
			}
			steps[sp.Parent] = append(steps[sp.Parent], sp)
		}
	}
	return windows, steps, sends
}

// renderSpans prints spans one a line, in creation order, for byte-for-byte
// comparison between runs.
func renderSpans(spans []obs.Span) string {
	var b strings.Builder
	for _, sp := range spans {
		fmt.Fprintf(&b, "%d<%d %s n%d %v..%v q%v %s\n", sp.ID, sp.Parent, sp.Kind, sp.Node, sp.Start, sp.End, sp.QueueWait, sp.Err)
	}
	return b.String()
}

// TestWriteBehindFlushOffRequestPath pins where the group commit runs: in
// the request loop's idle steps, not inside the append that fills a window.
// On stream_write's shape, over ten windows:
//
//   - no append takes longer than the first (which finds the server idle:
//     the bare round trip) plus one message's CPU — before, the append that
//     filled a window gathered the last window's eight replies and started
//     eight writes inline, ≈16.7 ms against 3.9;
//   - a step costs exactly one message's CPU — a send or a receive — so a
//     request that arrives mid-flush waits at most that long, and some do;
//   - every window the final flush does not finish lands in sixteen steps
//     under the request that armed it: one send per node, then one gather
//     per node.
//
// Two files buffering at once are stepped in arming order: all of the
// first window's sends, then the second's, and the first's gathers before
// the second's; and repeated runs — which would differ if the order came
// from a map — are identical span for span. With BRIDGE_WB_TRACE_OUT set,
// the two-file trace is written to <path>.steps, so CI can also compare it
// across processes.
func TestWriteBehindFlushOffRequestPath(t *testing.T) {
	net := msg.DefaultConfig()
	step := max(net.SendCPU, net.RecvCPU)
	appends, spans := wbStepProgram(t, []string{"f"}, 10)
	if len(appends) == 0 {
		t.Fatal("the program appended nothing")
	}
	rtt := appends[0]
	for i, d := range appends {
		if d > rtt+step {
			t.Errorf("append %d took %v: more than the %v round trip plus one step", i, d, rtt)
		}
	}
	waited := 0
	for _, sp := range spans {
		if sp.Kind != "server.seqwrite" {
			continue
		}
		if sp.QueueWait > step {
			t.Errorf("a request waited %v behind write-behind steps, more than one step (%v)", sp.QueueWait, step)
		}
		if sp.QueueWait > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Error("no request arrived mid-step: the yield rule went unexercised")
	}
	windows, steps, sends := wbSteps(spans)
	if len(windows) != 10 {
		t.Fatalf("%d windows stepped, want 10", len(windows))
	}
	for i, w := range windows {
		sent := 0
		for _, sp := range steps[w] {
			want := net.RecvCPU
			if sends[sp.ID] {
				want = net.SendCPU
				sent++
			}
			if d := sp.End - sp.Start; d != want {
				t.Errorf("window %d: a step took %v, want one message's CPU (%v)", i, d, want)
			}
		}
		if i < len(windows)-1 && (len(steps[w]) != 16 || sent != 8) {
			t.Errorf("window %d: %d steps, %d of them sends; want 16 and 8", i, len(steps[w]), sent)
		}
	}

	// Two files: f's window arms one request before g's.
	var trace string
	for run := 0; run < 3; run++ {
		_, spans := wbStepProgram(t, []string{"f", "g"}, 2)
		got := renderSpans(spans)
		if run > 0 {
			if got != trace {
				t.Fatalf("run %d's spans differ from run 0's: the step order is not fixed", run)
			}
			continue
		}
		trace = got
		windows, _, sends := wbSteps(spans)
		if len(windows) < 2 {
			t.Fatalf("%d windows stepped, want at least 2", len(windows))
		}
		f, g := windows[0], windows[1]
		var sendOrder, gatherOrder []obs.SpanID
		for _, sp := range spans { // creation order
			switch {
			case sp.Kind != "server.wbflush" || sp.Parent != f && sp.Parent != g:
			case sends[sp.ID]:
				sendOrder = append(sendOrder, sp.Parent)
			default:
				gatherOrder = append(gatherOrder, sp.Parent)
			}
		}
		want := append(slicesRepeat(f, 8), slicesRepeat(g, 8)...)
		if fmt.Sprint(sendOrder) != fmt.Sprint(want) || fmt.Sprint(gatherOrder) != fmt.Sprint(want) {
			t.Errorf("steps of two windows (f=%d armed before g=%d):\n sends   %v\n gathers %v\nwant each %v",
				f, g, sendOrder, gatherOrder, want)
		}
	}
	if out := os.Getenv("BRIDGE_WB_TRACE_OUT"); out != "" {
		if err := os.WriteFile(out+".steps", []byte(trace), 0o644); err != nil {
			t.Fatalf("dump trace: %v", err)
		}
	}
}

// slicesRepeat is n copies of id.
func slicesRepeat(id obs.SpanID, n int) []obs.SpanID {
	out := make([]obs.SpanID, n)
	for i := range out {
		out[i] = id
	}
	return out
}

// writeFault fails every write to the disk it is installed on while armed.
type writeFault struct{ armed bool }

func (f *writeFault) BeforeOp(_ time.Duration, _ string, op disk.Op, _ int) (time.Duration, error) {
	if f.armed && op == disk.OpWrite {
		return 0, errors.New("injected write failure")
	}
	return 0, nil
}

// leaderOf is the server answering for shard 0: the only one for a group of
// one, the leader of a replicated group.
func leaderOf(cl *Cluster) *Server {
	for _, s := range cl.Servers {
		if s.IsLeader() {
			return s
		}
	}
	return cl.Servers[0]
}

// TestWriteBehindStepFailureSurfacesOnce: a window whose failure an idle
// step gathers — a disk failure on one node, with no request on the file in
// flight — rolls the file back to its landed prefix at once, and parks the
// error. The next operation on the file surfaces it exactly once as
// ErrDeferredWrite: an Append (which is not buffered), a Flush, a read or a
// Stat; a Delete drops it with the file, and a file re-created under the
// name sees nothing. Afterwards the size is the landed prefix, Stat
// included, and the file takes appends again. Both group sizes keep the
// contract: a replicated group parks the error by committing the rollback.
func TestWriteBehindStepFailureSurfacesOnce(t *testing.T) {
	// 4 nodes × 2 stripes: the second window, blocks 8..15, fails on node
	// 1, so only block 8 of it (node 0's) is in the landed prefix.
	const window, failNode = 8, 1
	const prefix = window + failNode
	for _, replicas := range []int{1, 3} {
		for _, next := range []string{"append", "flush", "read", "stat", "delete"} {
			cfg := wbCfg(4, 2)
			cfg.Replicas = replicas
			withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
				cell := fmt.Sprintf("Replicas=%d/%s", replicas, next)
				for _, name := range []string{"f", "g"} {
					if _, err := c.Create(name); err != nil {
						t.Errorf("%s: Create %s: %v", cell, name, err)
						return
					}
				}
				// idle gives the server request gaps to step in, touching
				// only g, until done holds.
				idle := func(done func(s *Server) bool) bool {
					for i := 0; i < 64; i++ {
						if done(leaderOf(cl)) {
							return true
						}
						if _, err := c.List(); err != nil {
							t.Errorf("%s: List: %v", cell, err)
							return false
						}
					}
					return false
				}
				for i := 0; i < window; i++ {
					if err := c.SeqWrite("f", payload(i)); err != nil {
						t.Errorf("%s: SeqWrite %d: %v", cell, i, err)
						return
					}
				}
				if !idle(func(s *Server) bool { return len(s.wb.armed) == 0 }) {
					t.Errorf("%s: the first window never landed in idle steps", cell)
					return
				}
				fault := &writeFault{armed: true}
				cl.Nodes[failNode].Disk.SetFault(fault, "victim")
				for i := window; i < 2*window; i++ {
					if err := c.SeqWrite("f", payload(i)); err != nil {
						t.Errorf("%s: SeqWrite %d: %v", cell, i, err)
						return
					}
				}
				parked := func(s *Server) bool {
					if s.grp != nil {
						return s.grp.deferred["f"] != ""
					}
					return s.wb.parked["f"] != nil
				}
				if !idle(parked) {
					t.Errorf("%s: no idle step found the failed window", cell)
					return
				}
				fault.armed = false
				srv := leaderOf(cl)
				if got := srv.dir["f"].meta.Blocks; got != prefix || srv.wb.entries["f"] != nil {
					t.Errorf("%s: after the failed step the size is %d (want the landed prefix %d), write-behind state %v",
						cell, got, prefix, srv.wb.entries["f"] != nil)
				}

				var err error
				switch next {
				case "append":
					err = c.SeqWrite("f", payload(100))
				case "flush":
					_, err = c.Flush("f")
				case "read":
					_, err = c.ReadAt("f", 0)
				case "stat":
					_, err = c.Stat("f")
				case "delete":
					if _, err := c.Delete("f"); err != nil {
						t.Errorf("%s: %v; want the delete to drop the parked error", cell, err)
					}
					if _, err := c.Create("f"); err != nil {
						t.Errorf("%s: re-create: %v", cell, err)
					}
					if m, err := c.Stat("f"); err != nil || m.Blocks != 0 {
						t.Errorf("%s: the re-created file: %d blocks, %v", cell, m.Blocks, err)
					}
					if _, err := c.FlushAll(); err != nil {
						t.Errorf("%s: FlushAll: %v", cell, err)
					}
					return
				}
				if !errors.Is(err, ErrDeferredWrite) {
					t.Errorf("%s: the next operation: %v; want ErrDeferredWrite", cell, err)
				}
				// Once: the error is consumed, and the size is the prefix.
				if m, err := c.Stat("f"); err != nil || m.Blocks != prefix {
					t.Errorf("%s: Stat after the error: %d blocks, %v; want %d", cell, m.Blocks, err, prefix)
				}
				if _, err := c.FlushAll(); err != nil {
					t.Errorf("%s: FlushAll after the error: %v", cell, err)
				}
				if got, err := c.ReadAt("f", prefix-1); err != nil || !bytes.Equal(got, payload(prefix-1)) {
					t.Errorf("%s: ReadAt %d (landed): %v", cell, prefix-1, err)
				}
				if _, err := c.ReadAt("f", prefix); !errors.Is(err, ErrEOF) {
					t.Errorf("%s: ReadAt %d = %v; want ErrEOF past the rolled-back size", cell, prefix, err)
				}
				if err := c.SeqWrite("f", payload(200)); err != nil {
					t.Errorf("%s: append after the error: %v", cell, err)
				}
				if got, err := c.ReadAt("f", prefix); err != nil || !bytes.Equal(got, payload(200)) {
					t.Errorf("%s: the append after the error did not land at %d: %v", cell, prefix, err)
				}
			})
		}
	}
}

// deposeHook cuts a leader's node off from its peers while cut is set, and
// holds every reply to its LFS client back by hold.
type deposeHook struct {
	leader msg.NodeID
	peers  []msg.NodeID
	lfscli msg.Addr
	cut    bool
	hold   time.Duration
}

func (h *deposeHook) Deliver(_ time.Duration, from msg.NodeID, to msg.Addr, _ *msg.Message) msg.Fate {
	if h.cut && (from == h.leader && slices.Contains(h.peers, to.Node) || to.Node == h.leader && slices.Contains(h.peers, from)) {
		return msg.Fate{Drop: true}
	}
	if to == h.lfscli {
		return msg.Fate{ExtraDelay: h.hold}
	}
	return msg.Fate{}
}

// wbDeposedInstall drives a three-member group with write-behind through a
// snapshot install on a deposed leader. The leader arms a window of "f" and
// starts its runs, whose replies are held back; it is cut off from its peers;
// the majority elects a successor and compacts its log past the deposed
// leader's; the cut heals and the deposed member installs the snapshot with
// the runs still in flight. Once their replies have arrived the member is
// made leader again, so its LFS client reads its port. It returns the member
// and how many calls it had in flight at the install.
func wbDeposedInstall(t *testing.T, p sim.Proc, cl *Cluster, c *Client) (*Server, int) {
	if _, err := c.Create("f"); err != nil {
		t.Errorf("Create: %v", err)
		return nil, 0
	}
	lead := awaitLeader(t, p, cl)
	srv := cl.Servers[lead]
	hook := &deposeHook{
		leader: srv.Addr().Node,
		lfscli: msg.Addr{Node: srv.Addr().Node, Port: srv.cfg.PortName + ".lfscli"},
		hold:   2 * time.Second,
	}
	for i, m := range cl.Servers {
		if i != lead {
			hook.peers = append(hook.peers, m.Addr().Node)
		}
	}
	cl.Net.SetFault(hook)
	defer cl.Net.SetFault(nil)
	for i := 0; i < 8; i++ {
		if err := c.SeqWrite("f", payload(i)); err != nil {
			t.Errorf("SeqWrite %d: %v", i, err)
			return nil, 0
		}
	}
	hook.cut = true
	p.Sleep(20 * time.Millisecond)
	e := srv.wb.entries["f"]
	if e == nil || e.st.Len() == 0 {
		t.Errorf("the leader started none of its window's runs before the cut")
		return nil, 0
	}
	inflight := e.st.Len()
	for i := 0; i < 2*raftSnapshotEvery; i++ {
		if _, err := c.Create(fmt.Sprintf("g%d", i)); err != nil {
			t.Errorf("Create g%d: %v", i, err)
			return nil, 0
		}
	}
	installs := srv.grp.node.Tallies().SnapInstalls
	hook.cut = false
	p.Sleep(3 * time.Second)
	if srv.grp.node.Tallies().SnapInstalls == installs {
		t.Errorf("the deposed leader installed no snapshot")
		return nil, 0
	}
	hook.hold = 0
	for round := 0; cl.LeaderServer(0) != lead; round++ {
		if round == 8 {
			t.Errorf("the deposed member never led again")
			return nil, 0
		}
		other := awaitLeader(t, p, cl)
		if other == lead {
			break
		}
		cl.CrashServer(0, other, p.Now())
		if _, err := c.Create(fmt.Sprintf("h%d", round)); err != nil {
			t.Errorf("Create h%d: %v", round, err)
			return nil, 0
		}
		cl.RestartServer(0, other)
		p.Sleep(time.Second)
	}
	if _, err := c.Create("after"); err != nil {
		t.Errorf("Create after: %v", err)
	}
	return srv, inflight
}

// TestWriteBehindSnapshotInstallDropsWindows: a snapshot install resets a
// member's write-behind state through its streams' drop, so the runs a
// deposed leader left in flight are discarded: once their replies arrive,
// none is parked in its LFS client for good.
func TestWriteBehindSnapshotInstallDropsWindows(t *testing.T) {
	cfg := repCfg(4)
	cfg.Server = Config{WriteBehind: 2}
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		srv, inflight := wbDeposedInstall(t, p, cl, c)
		if srv == nil {
			return
		}
		t.Logf("%d calls in flight at the install; now %v, leader %d", inflight, p.Now(), cl.LeaderServer(0))
		if pending, discarded := srv.lc.C.Parked(); pending != 0 || discarded != 0 {
			t.Errorf("%d calls were in flight at the install; its LFS client holds %d parked replies and %d discarded ids",
				inflight, pending, discarded)
		}
	})
}

// wbArmedOK checks the arming-order list against the entries: it names each
// file with a live window exactly once, no other, and in the order the test
// armed them (order).
func wbArmedOK(s *Server, order []string) error {
	listed := make(map[*wbEntry]bool)
	at := 0
	for _, e := range s.wb.armed {
		name := e.ent.meta.Name
		switch {
		case listed[e]:
			return fmt.Errorf("%s listed twice in %d", name, len(s.wb.armed))
		case e.st.Windows() == 0:
			return fmt.Errorf("%s listed without a live window", name)
		case s.wb.entries[name] != e:
			return fmt.Errorf("%s listed, but no longer its file's entry", name)
		}
		listed[e] = true
		for at < len(order) && order[at] != name {
			at++
		}
		if at == len(order) {
			return fmt.Errorf("%s listed out of arming order %v", name, order)
		}
		at++
	}
	for name, e := range s.wb.entries {
		if e.st.Windows() > 0 && !listed[e] {
			return fmt.Errorf("%s has a live window but is not listed", name)
		}
	}
	return nil
}

// TestWriteBehindArmedHoldsLiveWindowsOnly is the write side's twin of
// TestReadAheadOrderHoldsLiveKeysOnly. After each way a window retires — its
// replies taken by steps, finished by a barrier, a run that fails to start, a
// failure a step finds, its file deleted with calls in flight, a snapshot
// install on a deposed leader — the arming-order list holds exactly the files
// with a live window, each once, in arming order; and once the replies have
// arrived and the server has read its port, its LFS client holds no parked
// reply and no discarded id.
func TestWriteBehindArmedHoldsLiveWindowsOnly(t *testing.T) {
	type env struct {
		p  sim.Proc
		cl *Cluster
		c  *Client
		s  *Server
	}
	// fill appends a window of name, which arms it.
	fill := func(v env, name string) bool {
		for i := 0; i < 8; i++ {
			if err := v.c.SeqWrite(name, payload(i)); err != nil {
				t.Errorf("SeqWrite %s %d: %v", name, i, err)
				return false
			}
		}
		return true
	}
	// idle gives the server request gaps to step in until done holds.
	idle := func(v env, done func() bool) bool {
		for i := 0; i < 256 && !done(); i++ {
			if _, err := v.c.List(); err != nil {
				t.Errorf("List: %v", err)
				return false
			}
		}
		return done()
	}
	parked := func(v env) func() bool { return func() bool { return v.s.wb.parked["f"] != nil } }
	for _, row := range []struct {
		name   string
		health bool
		retire func(v env, check func(stage string, order ...string)) bool
	}{
		{"landed by steps", false, func(v env, check func(string, ...string)) bool {
			if !fill(v, "f") || !fill(v, "g") {
				return false
			}
			check("armed", "f", "g")
			if !idle(v, func() bool { return len(v.s.wb.armed) == 0 }) {
				t.Error("the windows never landed in steps")
			}
			check("landed")
			return true
		}},
		{"finished by a barrier", false, func(v env, check func(string, ...string)) bool {
			if !fill(v, "f") || !fill(v, "g") {
				return false
			}
			check("armed", "f", "g")
			for _, name := range []string{"g", "f"} {
				if _, err := v.c.Flush(name); err != nil {
					t.Errorf("Flush %s: %v", name, err)
				}
				check("flushed "+name, "f", "g")
			}
			return true
		}},
		{"a run that fails to start", true, func(v env, check func(string, ...string)) bool {
			v.cl.FailNode(1)
			v.p.Sleep(10 * time.Second) // the monitor declares node 1 dead
			if !fill(v, "f") {
				return false
			}
			if !idle(v, parked(v)) {
				t.Error("no step found the run that cannot start")
			}
			check("failed to start")
			return true
		}},
		{"a window that fails in a step", false, func(v env, check func(string, ...string)) bool {
			fault := &writeFault{armed: true}
			v.cl.Nodes[1].Disk.SetFault(fault, "victim")
			defer func() { fault.armed = false }()
			if !fill(v, "g") || !fill(v, "f") {
				return false
			}
			check("armed", "g", "f")
			if !idle(v, parked(v)) {
				t.Error("no step found the failed window")
			}
			check("failed in a step", "g", "f")
			return true
		}},
		{"a file deleted with calls in flight", false, func(v env, check func(string, ...string)) bool {
			if !fill(v, "g") || !fill(v, "f") {
				return false
			}
			if _, err := v.c.Delete("f"); err != nil {
				t.Errorf("Delete: %v", err)
			}
			check("deleted", "g", "f")
			return true
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := wrenCfg(4)
			cfg.Server = Config{WriteBehind: 2}
			if row.health {
				cfg.Server.Health = &HealthConfig{}
			}
			withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
				v := env{p: p, cl: cl, c: c, s: cl.Servers[0]}
				// s lives on node 0 alone: reading it makes the server read
				// its LFS client's port, whichever node is failed.
				if _, err := c.CreateSpec("s", distrib.Spec{P: 1}, false); err != nil {
					t.Errorf("Create s: %v", err)
					return
				}
				if _, err := c.AppendN("s", [][]byte{payload(0)}); err != nil {
					t.Errorf("AppendN s: %v", err)
					return
				}
				for _, name := range []string{"f", "g"} {
					if _, err := c.Create(name); err != nil {
						t.Errorf("Create %s: %v", name, err)
						return
					}
				}
				check := func(stage string, order ...string) {
					if err := wbArmedOK(v.s, order); err != nil {
						t.Errorf("%s: %v", stage, err)
					}
				}
				if !row.retire(v, check) {
					return
				}
				p.Sleep(time.Second)
				if _, err := c.ReadAt("s", 0); err != nil {
					t.Errorf("ReadAt s: %v", err)
				}
				if pending, discarded := v.s.lc.C.Parked(); pending != 0 || discarded != 0 {
					t.Errorf("the server's LFS client holds %d parked replies and %d discarded ids", pending, discarded)
				}
			})
		})
	}
	t.Run("a snapshot install", func(t *testing.T) {
		cfg := repCfg(4)
		cfg.Server = Config{WriteBehind: 2}
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			s, _ := wbDeposedInstall(t, p, cl, c)
			if s == nil {
				return
			}
			if err := wbArmedOK(s, nil); err != nil {
				t.Errorf("after the install: %v", err)
			}
			if pending, discarded := s.lc.C.Parked(); pending != 0 || discarded != 0 {
				t.Errorf("the member's LFS client holds %d parked replies and %d discarded ids", pending, discarded)
			}
		})
	})
}
