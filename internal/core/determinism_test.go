package core

import (
	"errors"
	"fmt"
	"testing"

	"bridge/internal/sim"
)

// The virtual clock promises bit-for-bit deterministic simulations: a
// whole-cluster scenario must produce identical timings on every run.
func TestClusterDeterminism(t *testing.T) {
	scenario := func() (string, error) {
		rt := sim.NewVirtual()
		cl, err := StartCluster(rt, wrenCfg(4))
		if err != nil {
			return "", err
		}
		var log string
		rt.Go("scenario", func(p sim.Proc) {
			defer cl.Stop()
			c := cl.NewClient(p, 0, "det-cli")
			defer c.Close()
			c.Create("a")
			c.CreateDisordered("b")
			for i := 0; i < 12; i++ {
				c.SeqWrite("a", payload(i))
				c.SeqWrite("b", payload(i))
			}
			c.Open("a")
			for {
				_, eof, err := c.SeqRead("a")
				if err != nil || eof {
					break
				}
			}
			c.ReadAt("b", 7)
			c.Delete("a")
			log = fmt.Sprintf("t=%v msgs=%d", p.Now(), cl.Net.Stats().Get("msg.sent"))
		})
		if err := rt.Wait(); err != nil {
			return "", err
		}
		return log, nil
	}
	first, err := scenario()
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for i := 0; i < 5; i++ {
		again, err := scenario()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if again != first {
			t.Fatalf("run %d diverged: %q vs %q", i, again, first)
		}
	}
}

// TestServerSurvivesUnknownRequest: a garbage request must produce an error
// reply, not kill the server.
func TestServerSurvivesUnknownRequest(t *testing.T) {
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *Cluster, c *Client) {
		type bogus struct{ X int }
		// The reply has no kind the caller could have expected; whatever
		// kind it does expect, it gets a typed error, not a panic.
		_, err := reply[StatResp](c.callAt(cl.Servers[0].Addr(), bogus{X: 1}))
		if !errors.Is(err, ErrBadArg) {
			t.Errorf("unknown request = %v, want ErrBadArg", err)
		}
		// The server still works afterwards.
		if _, err := c.Create("after"); err != nil {
			t.Errorf("Create after bogus request: %v", err)
		}
	})
}

func TestListCommand(t *testing.T) {
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *Cluster, c *Client) {
		names, err := c.List()
		if err != nil || len(names) != 0 {
			t.Errorf("List empty = %v, %v", names, err)
		}
		c.Create("zeta")
		c.Create("alpha")
		c.CreateDisordered("mid")
		names, err = c.List()
		if err != nil {
			t.Errorf("List: %v", err)
			return
		}
		if fmt.Sprint(names) != "[alpha mid zeta]" {
			t.Errorf("List = %v, want sorted [alpha mid zeta]", names)
		}
	})
}

func TestSnapshotRestoreRoundTripsEverything(t *testing.T) {
	rt := sim.NewVirtual()
	cl, err := StartCluster(rt, fastCfg(2))
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	rt.Go("fill", func(p sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(p, 0, "snap")
		defer c.Close()
		c.Create("one")
		c.SeqWrite("one", payload(1))
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	snap := cl.Servers[0].Snapshot()
	if snap.NextID == 0 || len(snap.Files) != 1 || snap.Files[0].Name != "one" {
		t.Fatalf("Snapshot = %+v", snap)
	}
	// Restore into a fresh server: ids must not collide.
	rt2 := sim.NewVirtual()
	cfg := fastCfg(2)
	cfg.Disks = append(cfg.Disks, cl.Nodes[0].Disk, cl.Nodes[1].Disk)
	cl2, err := StartCluster(rt2, cfg)
	if err != nil {
		t.Fatalf("StartCluster 2: %v", err)
	}
	cl2.Servers[0].Restore(snap)
	rt2.Go("verify", func(p sim.Proc) {
		defer cl2.Stop()
		c := cl2.NewClient(p, 0, "snap2")
		defer c.Close()
		meta, err := c.Create("two")
		if err != nil {
			t.Errorf("Create after restore: %v", err)
			return
		}
		if meta.FileID <= snap.Files[0].FileID {
			t.Errorf("new file id %d collides with restored id space", meta.FileID)
		}
	})
	if err := rt2.Wait(); err != nil {
		t.Fatalf("Wait 2: %v", err)
	}
}
