package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// The session rule, at both group sizes: a server keeps each client's latest
// request. A retransmission of the latest is answered from the session (or
// re-run if it failed), a later request replaces it, and an earlier one is a
// stale duplicate, refused without running. A group of one keeps the reply;
// a member of a replicated group keeps the records the request committed.

// bothSizes runs fn as a subtest at a group of one and at Replicas: 3.
func bothSizes(t *testing.T, fn func(t *testing.T, cfg ClusterConfig)) {
	for _, cfg := range []ClusterConfig{fastCfg(4), repCfg(4)} {
		t.Run(fmt.Sprintf("replicas%d", cfg.Replicas), func(t *testing.T) { fn(t, cfg) })
	}
}

// serving is the server that answers the client: the one server of a group
// of one, a replicated group's leader.
func serving(t *testing.T, p sim.Proc, cl *Cluster) *Server {
	if cl.Servers[0].grp == nil {
		return cl.Servers[0]
	}
	return cl.Servers[awaitLeader(t, p, cl)]
}

// sessionsOf reports srv's sessions, how many clients its FIFO queues, and
// client's session: its op and how many replies or records it holds.
func sessionsOf(srv *Server, client msg.Addr) (n, queued int, op uint64, held int, ok bool) {
	if g := srv.grp; g != nil {
		ss, ok := g.sess.m[client]
		if ok {
			op, held = ss.op, len(ss.held)
		}
		return len(g.sess.m), len(g.sess.q), op, held, ok
	}
	ss, ok := srv.sessions.m[client]
	if ok && ss.held != nil {
		op, held = ss.op, 1
	} else if ok {
		op = ss.op
	}
	return len(srv.sessions.m), len(srv.sessions.q), op, held, ok
}

// A retransmission sent before the client's next operation is answered, not
// run again: the cursor moves once. A group of one answers with the first
// reply, even after another client has changed the block it read; a member
// heals it from its record, re-reading the same block.
func TestSessionRetransmissionGetsFirstReply(t *testing.T) {
	bothSizes(t, func(t *testing.T, cfg ClusterConfig) {
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			if _, err := c.Create("f"); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if err := c.WriteAt("f", 0, payload(1)); err != nil {
				t.Errorf("WriteAt: %v", err)
				return
			}
			req := SeqReadReq{Name: "f", OpID: c.opID()}
			first, err := reply[SeqReadResp](c.call(req))
			if err != nil || !bytes.Equal(first.Data, payload(1)) {
				t.Errorf("first read: %q, %v", head(first.Data), err)
				return
			}
			other := cl.NewClient(p, 0, "other")
			defer other.Close()
			if err := other.WriteAt("f", 0, payload(2)); err != nil {
				t.Errorf("other WriteAt: %v", err)
				return
			}
			srv := serving(t, p, cl)
			answered, want := srv.m.dedupHits, payload(1)
			if srv.grp != nil {
				answered, want = srv.grp.rm.heals, payload(2)
			}
			before := answered.Value()
			again, err := reply[SeqReadResp](c.call(req))
			if err != nil || !bytes.Equal(again.Data, want) {
				t.Errorf("retransmission answered %q, %v; want %q", head(again.Data), err, head(want))
			}
			if got := answered.Value() - before; got != 1 {
				t.Errorf("%d retransmissions answered from the session, want 1", got)
			}
			// The cursor moved once: the next read is block 1, at end of file.
			if _, eof, err := c.SeqRead("f"); err != nil || !eof {
				t.Errorf("next SeqRead: eof %v, %v; want end of file", eof, err)
			}
		})
	})
}

// A copy of an operation older than the client's latest never runs: it is
// refused with ErrStaleOp, starts no storage-node write and is counted.
func TestSessionStaleDuplicateRunsNothing(t *testing.T) {
	bothSizes(t, func(t *testing.T, cfg ClusterConfig) {
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			if _, err := c.Create("f"); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			req := RandWriteReq{Name: "f", BlockNum: 0, Data: payload(1), OpID: c.opID()}
			if _, err := reply[RandWriteResp](c.call(req)); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if err := c.WriteAt("f", 0, payload(2)); err != nil {
				t.Errorf("WriteAt: %v", err)
				return
			}
			srv := serving(t, p, cl)
			lfsOps, stale := srv.nextLFSOp, srv.m.dedupStale.Value()
			if _, err := reply[RandWriteResp](c.call(req)); !errors.Is(err, ErrStaleOp) {
				t.Errorf("stale duplicate answered %v, want ErrStaleOp", err)
			}
			if srv.nextLFSOp != lfsOps {
				t.Errorf("the stale duplicate started %d storage-node writes", srv.nextLFSOp-lfsOps)
			}
			if got := srv.m.dedupStale.Value() - stale; got != 1 {
				t.Errorf("bridge.dedup_stale counted %d, want 1", got)
			}
			if data, err := c.ReadAt("f", 0); err != nil || !bytes.Equal(data, payload(2)) {
				t.Errorf("block 0 holds %q, %v; want the later write's", head(data), err)
			}
		})
	})
}

// A failed attempt keeps no reply: its retransmission runs again, and can
// succeed where the first attempt did not.
func TestSessionFailedOpRunsAgain(t *testing.T) {
	bothSizes(t, func(t *testing.T, cfg ClusterConfig) {
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			other := cl.NewClient(p, 0, "other")
			defer other.Close()
			if _, err := other.Create("f"); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			req := CreateReq{Name: "f", OpID: c.opID()}
			if _, err := reply[CreateResp](c.call(req)); !errors.Is(err, ErrExists) {
				t.Errorf("create over an existing file: %v, want ErrExists", err)
				return
			}
			if _, err := other.Delete("f"); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
			r, err := reply[CreateResp](c.call(req))
			if err != nil || r.Meta.Name != "f" {
				t.Errorf("retransmitted create: %+v, %v; want it run again", r.Meta, err)
			}
			if _, err := c.Stat("f"); err != nil {
				t.Errorf("stat: %v", err)
			}
		})
	})
}

// One client holds one session however many operations it sends — on every
// member of a replicated group, with one record — and the sessions of
// dedupCap+1 clients evict the oldest client's.
func TestSessionBounds(t *testing.T) {
	bothSizes(t, func(t *testing.T, cfg ClusterConfig) {
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			blocks := make([][]byte, 32)
			for i := range blocks {
				blocks[i] = payload(i)
			}
			if _, err := c.Create("f"); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if _, err := c.AppendN("f", blocks); err != nil {
				t.Errorf("AppendN: %v", err)
				return
			}
			for i := 0; i < 2*dedupCap; i++ {
				if err := c.WriteAt("f", int64(i%32), payload(i)); err != nil {
					t.Errorf("WriteAt %d: %v", i, err)
					return
				}
			}
			p.Sleep(200 * time.Millisecond) // followers apply the last commit
			for i, srv := range cl.Servers {
				if n, queued, op, held, _ := sessionsOf(srv, c.mc.Addr()); n != 1 || queued != 1 || op != c.nextOp || held != 1 {
					t.Errorf("server %d: %d sessions (%d queued), the client's at op %d holding %d, after %d writes by one client; want one at op %d holding one",
						i, n, queued, op, held, 2*dedupCap, c.nextOp)
				}
			}
			clients := make([]*Client, dedupCap)
			for i := range clients {
				clients[i] = cl.NewClient(p, 0, fmt.Sprintf("cli%d", i))
				defer clients[i].Close()
				if _, err := clients[i].Create(fmt.Sprintf("n%d", i)); err != nil {
					t.Errorf("client %d create: %v", i, err)
					return
				}
			}
			p.Sleep(200 * time.Millisecond)
			for i, srv := range cl.Servers {
				n, queued, _, _, kept := sessionsOf(srv, c.mc.Addr())
				if n != dedupCap || queued != dedupCap {
					t.Errorf("server %d: %d sessions (%d queued) for %d clients; want dedupCap = %d", i, n, queued, dedupCap+1, dedupCap)
				}
				if kept {
					t.Errorf("server %d: the oldest client's session survived dedupCap newer clients", i)
				}
				if _, _, _, _, kept := sessionsOf(srv, clients[dedupCap-1].mc.Addr()); !kept {
					t.Errorf("server %d: the newest client has no session", i)
				}
			}
		})
	})
}

// A client that reuses a closed client's address starts its operation ids
// above that client's, so the server does not answer it with the old
// client's replies (nor, under the session rule, refuse it as stale).
func TestSessionReusedAddressIsANewClient(t *testing.T) {
	bothSizes(t, func(t *testing.T, cfg ClusterConfig) {
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			first := cl.NewClient(p, 0, "reused")
			if _, err := first.Create("first"); err != nil {
				t.Errorf("create first: %v", err)
				return
			}
			first.Close()
			second := cl.NewClient(p, 0, "reused")
			defer second.Close()
			meta, err := second.Create("second")
			if err != nil || meta.Name != "second" {
				t.Errorf("the new client's create answered %q, %v; want second's metadata", meta.Name, err)
				return
			}
			if _, err := c.Stat("second"); err != nil {
				t.Errorf("stat second: %v", err)
			}
		})
	})
}

// A late duplicate of a failed mutation, arriving after the client's next
// operation, is stale at both group sizes: the file the client deleted after
// its create failed stays deleted.
func TestSessionLateDuplicateOfFailedOp(t *testing.T) {
	bothSizes(t, func(t *testing.T, cfg ClusterConfig) {
		withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
			if _, err := c.Create("dup"); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			req := CreateReq{Name: "dup", OpID: c.opID()}
			if _, err := reply[CreateResp](c.call(req)); !errors.Is(err, ErrExists) {
				t.Errorf("second create: %v, want ErrExists", err)
				return
			}
			if _, err := c.Delete("dup"); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
			if _, err := reply[CreateResp](c.call(req)); !errors.Is(err, ErrStaleOp) {
				t.Errorf("late duplicate of the failed create answered %v, want ErrStaleOp", err)
			}
			if _, err := c.Stat("dup"); !errors.Is(err, ErrNotFound) {
				t.Errorf("stat after the late duplicate: %v, want ErrNotFound", err)
			}
		})
	})
}

// dropLanding drops the first storage-node write of one LFS file once armed:
// the write's commit stands, its landing times out.
type dropLanding struct {
	file    uint32
	armed   bool
	dropped int
}

func (d *dropLanding) Deliver(_ time.Duration, _ msg.NodeID, _ msg.Addr, m *msg.Message) msg.Fate {
	if w, ok := m.Body.(lfs.WriteReq); ok && d.armed && d.dropped == 0 && w.FileID == d.file {
		d.dropped++
		return msg.Fate{Drop: true}
	}
	return msg.Fate{}
}

// catchUp has another client commit enough creates that the live members
// compact their logs past crashed member j's, and restarts j, which catches
// up by a snapshot install.
func catchUp(t *testing.T, p sim.Proc, cl *Cluster, j int) {
	t.Helper()
	installs := cl.Servers[j].grp.rm.snapInstalls // one counter for the group
	before := installs.Value()
	other := cl.NewClient(p, 0, "churn")
	defer other.Close()
	for i := 0; i < 2*raftSnapshotEvery; i++ {
		if _, err := other.Create(fmt.Sprintf("churn%d", i)); err != nil {
			t.Fatalf("churn create %d: %v", i, err)
		}
	}
	cl.RestartServer(0, j)
	p.Sleep(2 * time.Second)
	if installs.Value() == before {
		t.Fatalf("member %d caught up without a snapshot install", j)
	}
}

// lead makes member j the group's leader: whichever other member leads is
// crashed until j wins an election, then restarted.
func lead(t *testing.T, p sim.Proc, cl *Cluster, j int) {
	t.Helper()
	for try := 0; try < 8; try++ {
		i := awaitLeader(t, p, cl)
		if i == j {
			return
		}
		cl.CrashServer(0, i, p.Now())
		p.Sleep(time.Second)
		cl.RestartServer(0, i)
		p.Sleep(time.Second)
	}
	t.Fatalf("member %d never won an election", j)
}

// A scatter that committed one of its write items is retransmitted to a
// member that learned of it only from an installed snapshot, and now leads:
// the committed item heals from the session the snapshot rebuilt, the other
// runs, and each lands once.
func TestSessionScatterHealsAfterSnapshotInstall(t *testing.T) {
	cfg := repCfg(4)
	cfg.Server.LFSTimeout = 50 * time.Millisecond // a dropped landing fails fast
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		for _, name := range []string{"x", "y"} {
			if _, err := c.Create(name); err != nil {
				t.Fatalf("create: %v", err)
			}
			if err := c.WriteAt(name, 0, payload(0)); err != nil {
				t.Fatalf("WriteAt: %v", err)
			}
		}
		y, err := c.Stat("y")
		if err != nil {
			t.Fatalf("stat y: %v", err)
		}
		drop := &dropLanding{file: y.LFSFileID}
		cl.Net.SetFault(drop)
		// The follower that will lead is down while the scatter commits.
		j := (awaitLeader(t, p, cl) + 1) % 3
		cl.CrashServer(0, j, p.Now())
		req := ScatterReq{Items: []ScatterItem{
			{Name: "x", BlockNum: 1, Write: true, Data: payload(1)},
			{Name: "y", BlockNum: 1, Write: true, Data: payload(2)},
		}}
		req.OpID = c.opID()
		c.nextOp = req.lastOp()
		drop.armed = true
		r, err := reply[ScatterResp](c.call(req))
		if err != nil || len(r.Results) != 2 || !r.Results[0].OK() || r.Results[1].OK() || drop.dropped != 1 {
			t.Fatalf("first scatter: %+v, %v (%d dropped); want x written, y failed", r.Results, err, drop.dropped)
		}
		catchUp(t, p, cl, j)
		if n, _, op, held, _ := sessionsOf(cl.Servers[j], c.mc.Addr()); op != req.OpID || held != 1 {
			t.Fatalf("member %d restored the client's session at op %d holding %d (of %d sessions); want op %d holding x's item",
				j, op, held, n, req.OpID)
		}
		lead(t, p, cl, j)
		srv := cl.Servers[j]
		heals, snap := srv.grp.rm.heals.Value(), srv.grp.node.Status().LastIndex
		r, err = reply[ScatterResp](c.callAt(srv.Addr(), req))
		if err != nil || r.Results != nil {
			t.Fatalf("retransmitted scatter: %+v, %v; want every write landed", r.Results, err)
		}
		if got := srv.grp.rm.heals.Value() - heals; got != 1 {
			t.Errorf("%d items healed from the session, want x's", got)
		}
		writes := map[string]int{}
		for _, e := range srv.grp.node.CommittedSince(snap) {
			if e.Data == nil {
				continue
			}
			op, err := decodeRop(e.Data, srv.grp.ports, nil, nil)
			if err != nil {
				t.Fatalf("log entry %d: %v", e.Index, err)
			}
			if op.Kind == ropWrite {
				writes[op.Name]++
			}
		}
		if writes["x"] != 0 || writes["y"] != 1 {
			t.Errorf("the retransmission logged writes %v, want y's once", writes)
		}
		for k, name := range []string{"x", "y"} {
			blocks, err := c.ReadAtN(name, 0, 4)
			if err != nil || len(blocks) != 2 || !bytes.Equal(blocks[1], payload(k+1)) {
				t.Errorf("%s after the retransmission: %d blocks, %v", name, len(blocks), err)
			}
		}
	})
}

// Every member encodes the same snapshot bytes for the same applied state,
// sessions included — also a member that rebuilt them from an installed
// snapshot.
func TestSessionSnapshotsIdentical(t *testing.T) {
	withCluster(t, repCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		other := cl.NewClient(p, 0, "other")
		defer other.Close()
		for i, cli := range []*Client{c, other} {
			name := fmt.Sprintf("f%d", i)
			if _, err := cli.Create(name); err != nil {
				t.Fatalf("create: %v", err)
			}
			if err := cli.SeqWrite(name, payload(i)); err != nil {
				t.Fatalf("SeqWrite: %v", err)
			}
		}
		j := (awaitLeader(t, p, cl) + 1) % 3
		cl.CrashServer(0, j, p.Now())
		catchUp(t, p, cl, j)
		if _, err := c.Scatter([]ScatterItem{
			{Name: "f0", BlockNum: 1, Write: true, Data: payload(2)},
			{Name: "f1", BlockNum: 1, Write: true, Data: payload(3)},
		}); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		if _, _, err := other.SeqRead("f1"); err != nil {
			t.Fatalf("SeqRead: %v", err)
		}
		p.Sleep(200 * time.Millisecond)
		want := cl.Servers[0].encodeSnapshot()
		for i, srv := range cl.Servers {
			if got := srv.encodeSnapshot(); srv.grp.applied != cl.Servers[0].grp.applied || !bytes.Equal(got, want) {
				t.Errorf("member %d (applied %d) encodes %d snapshot bytes unlike member 0's %d (applied %d)",
					i, srv.grp.applied, len(got), len(want), cl.Servers[0].grp.applied)
			}
		}
		if _, _, op, held, _ := sessionsOf(cl.Servers[0], c.mc.Addr()); op != c.nextOp-2 || held != 2 {
			t.Errorf("the scatter's session is at op %d holding %d; want op %d holding both items", op, held, c.nextOp-2)
		}
	})
}
