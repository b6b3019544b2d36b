package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bridge/internal/sim"
)

// The session rule: a group of one keeps each client's latest operation and,
// if it succeeded, its reply. A retransmission of the latest is answered from
// it (or re-run if it failed), a later operation replaces it, and an earlier
// one is a stale duplicate, refused without running.

// A retransmission sent before the client's next operation is answered with
// the first reply, even after another client has changed the block it read.
func TestSessionRetransmissionGetsFirstReply(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
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
		hits := cl.Servers[0].m.dedupHits.Value()
		again, err := reply[SeqReadResp](c.call(req))
		if err != nil || !bytes.Equal(again.Data, payload(1)) {
			t.Errorf("retransmission answered %q, %v; want the first reply %q", head(again.Data), err, head(first.Data))
		}
		if got := cl.Servers[0].m.dedupHits.Value() - hits; got != 1 {
			t.Errorf("%d dedup hits, want 1", got)
		}
		// The cursor moved once: the next read is block 1, at end of file.
		if _, eof, err := c.SeqRead("f"); err != nil || !eof {
			t.Errorf("next SeqRead: eof %v, %v; want end of file", eof, err)
		}
	})
}

// A copy of an operation older than the client's latest never runs: it is
// refused with ErrStaleOp, starts no storage-node write and is counted.
func TestSessionStaleDuplicateRunsNothing(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
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
		srv := cl.Servers[0]
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
}

// A failed attempt keeps no reply: its retransmission runs again, and can
// succeed where the first attempt did not.
func TestSessionFailedOpRunsAgain(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
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
}

// One client holds one session however many operations it sends, and the
// sessions of dedupCap+1 clients evict the oldest client's.
func TestSessionBounds(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
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
		srv := cl.Servers[0]
		for i := 0; i < 2*dedupCap; i++ {
			if _, _, err := c.SeqReadN("f", 32); err != nil {
				t.Errorf("SeqReadN %d: %v", i, err)
				return
			}
		}
		if len(srv.sessions) != 1 || len(srv.sessQ) != 1 || srv.sessions[c.mc.Addr()].reply == nil {
			t.Errorf("%d sessions (%d queued) after %d reads by one client; want one holding its last reply",
				len(srv.sessions), len(srv.sessQ), 2*dedupCap)
		}
		clients := make([]*Client, dedupCap)
		for i := range clients {
			clients[i] = cl.NewClient(p, 0, fmt.Sprintf("cli%d", i))
			if _, err := clients[i].Delete("missing"); !errors.Is(err, ErrNotFound) {
				t.Errorf("client %d delete: %v", i, err)
				return
			}
			defer clients[i].Close()
		}
		if len(srv.sessions) != dedupCap || len(srv.sessQ) != dedupCap {
			t.Errorf("%d sessions (%d queued) for %d clients; want dedupCap = %d", len(srv.sessions), len(srv.sessQ), dedupCap+1, dedupCap)
		}
		if _, kept := srv.sessions[c.mc.Addr()]; kept {
			t.Error("the oldest client's session survived dedupCap newer clients")
		}
		if _, kept := srv.sessions[clients[dedupCap-1].mc.Addr()]; !kept {
			t.Error("the newest client has no session")
		}
	})
}

// A client that reuses a closed client's address starts its operation ids
// above that client's, so the server does not answer it with the old
// client's replies (nor, under the session rule, refuse it as stale).
func TestSessionReusedAddressIsANewClient(t *testing.T) {
	for _, cfg := range []ClusterConfig{fastCfg(4), repCfg(4)} {
		t.Run(fmt.Sprintf("replicas%d", cfg.Replicas), func(t *testing.T) {
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
}

// A late duplicate of a failed mutation, arriving after the client's next
// operation, is stale at both group sizes: the file the client deleted after
// its create failed stays deleted.
func TestSessionLateDuplicateOfFailedOp(t *testing.T) {
	for _, cfg := range []ClusterConfig{fastCfg(4), repCfg(4)} {
		t.Run(fmt.Sprintf("replicas%d", cfg.Replicas), func(t *testing.T) {
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
}
