package tools

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/efs"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

func TestRunOnNodesGathersInOrder(t *testing.T) {
	withCluster(t, fastCfg(5), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		results, err := RunOnNodes(p, cl.Net, cl.NodeIDs(), "order", func(ctx *WorkerCtx) (any, error) {
			// Finish in reverse order to prove results are indexed, not
			// arrival-ordered.
			ctx.Proc.Sleep(time.Duration(5-ctx.Index) * time.Millisecond)
			return ctx.Index * 10, nil
		})
		if err != nil {
			t.Errorf("RunOnNodes: %v", err)
			return
		}
		for i, r := range results {
			if r != i*10 {
				t.Errorf("results[%d] = %v, want %d", i, r, i*10)
			}
		}
	})
}

func TestRunOnNodesPropagatesWorkerError(t *testing.T) {
	withCluster(t, fastCfg(3), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		boom := errors.New("boom on node 1")
		results, err := RunOnNodes(p, cl.Net, cl.NodeIDs(), "errprop", func(ctx *WorkerCtx) (any, error) {
			if ctx.Index == 1 {
				return nil, boom
			}
			return "ok", nil
		})
		if err == nil || !contains(err.Error(), "boom on node 1") {
			t.Errorf("err = %v, want worker error", err)
		}
		// Healthy workers' results still arrive.
		if results == nil || results[0] != "ok" || results[2] != "ok" {
			t.Errorf("results = %v", results)
		}
	})
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestWorkersRunOnTheirNodes(t *testing.T) {
	// The whole point of tools: no block crosses the interconnect. What does
	// cross is the server conversation, the spawns and the completion wave,
	// and none of that knows how long the file is — so a copy of eight times
	// the blocks must put exactly as many bytes on the wire.
	remoteBytes := func(blocks int) (moved int64) {
		withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
			if err := workload.Fill(p, c, "f", workload.Records(21, blocks, 64)); err != nil {
				t.Error(err)
				return
			}
			before := cl.Net.Stats().Get("msg.remote_bytes")
			if st, err := Copy(p, c, "f", "f2"); err != nil || st.Blocks != int64(blocks) {
				t.Errorf("Copy = %+v, %v", st, err)
				return
			}
			moved = cl.Net.Stats().Get("msg.remote_bytes") - before
		})
		return moved
	}
	small, large := remoteBytes(32), remoteBytes(256)
	if small == 0 || large != small {
		t.Errorf("a copy of 32 blocks put %d bytes on the interconnect, one of 256 blocks %d: block data left its node", small, large)
	}
}

func TestFilterRefusesNonRoundRobin(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if _, err := c.CreateDisordered("d"); err != nil {
			t.Errorf("CreateDisordered: %v", err)
			return
		}
		if _, err := Copy(p, c, "d", "d2"); err == nil {
			t.Error("Copy of a disordered file succeeded")
		}
	})
}

func TestGrepEmptyPattern(t *testing.T) {
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		workload.Fill(p, c, "f", workload.Records(1, 4, 32))
		if _, err := Grep(p, c, "f", nil); err == nil {
			t.Error("Grep with empty pattern succeeded")
		}
	})
}

func TestToolsOnMissingFile(t *testing.T) {
	withCluster(t, fastCfg(2), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if _, err := Copy(p, c, "ghost", "dst"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("Copy missing = %v", err)
		}
		if _, err := Grep(p, c, "ghost", []byte("x")); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("Grep missing = %v", err)
		}
		if _, err := WC(p, c, "ghost"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("WC missing = %v", err)
		}
		if _, err := Sort(p, c, "ghost", "dst", SortOptions{}); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("Sort missing = %v", err)
		}
	})
}

func TestToolFailsCleanlyOnDeadNode(t *testing.T) {
	// A node failure mid-fleet must surface as an error from the tool,
	// not a hang: the spawn acknowledgement times out.
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if err := workload.Fill(p, c, "f", workload.Records(5, 16, 64)); err != nil {
			t.Error(err)
			return
		}
		cl.FailNode(2)
		_, err := Grep(p, c, "f", []byte("x"))
		if err == nil {
			t.Error("Grep with a dead node succeeded")
		}
	})
}

func TestConcurrentToolsDoNotCollide(t *testing.T) {
	// Two tools running back to back reuse the machinery; port names and
	// scratch ids must not collide.
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		workload.Fill(p, c, "a", workload.Records(2, 24, 64))
		workload.Fill(p, c, "b", workload.Records(3, 24, 64))
		done := cl.Runtime().NewQueue("two-tools")
		p.Go("copy-a", func(wp sim.Proc) {
			wc := core.NewMultiClient(wp, cl.Net, 0, "tt-a", cl.ServerAddrs())
			defer wc.Close()
			_, err := Copy(wp, wc, "a", "a2")
			done.Send(err)
		})
		p.Go("copy-b", func(wp sim.Proc) {
			wc := core.NewMultiClient(wp, cl.Net, 0, "tt-b", cl.ServerAddrs())
			defer wc.Close()
			_, err := Copy(wp, wc, "b", "b2")
			done.Send(err)
		})
		for i := 0; i < 2; i++ {
			v, ok := done.Recv(p)
			if !ok {
				t.Error("done closed")
				return
			}
			if err, isErr := v.(error); isErr && err != nil {
				t.Errorf("concurrent copy: %v", err)
			}
		}
		for _, name := range []string{"a2", "b2"} {
			if got, err := workload.ReadAll(p, c, name); err != nil || len(got) != 24 {
				t.Errorf("%s = %d blocks, %v", name, len(got), err)
			}
		}
	})
}

// A tool's workers "become part of the file system", so a tool fails like
// it: the class of the storage node's failure survives the worker's
// completion message and RunOnNodes' wrapping.
func TestToolFailureKeepsItsClass(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if err := workload.Fill(p, c, "src", workload.Records(1, 16, 64)); err != nil {
			t.Error(err)
			return
		}
		src, err := c.Open("src")
		if err != nil || !rot(t, p, cl, c, 1, src.LFSFileID, 1) {
			t.Errorf("rotting node 1's second block: %v", err)
			return
		}
		if _, err := Copy(p, c, "src", "dst"); !errors.Is(err, efs.ErrCorrupt) {
			t.Errorf("Copy over a rotted block = %v, want efs.ErrCorrupt", err)
		}
		if _, err := Grep(p, c, "src", []byte("x")); !errors.Is(err, efs.ErrCorrupt) {
			t.Errorf("Grep over a rotted block = %v, want efs.ErrCorrupt", err)
		}
		// A failure of no EFS class keeps its text and nothing else.
		_, err = RunOnNodes(p, cl.Net, cl.NodeIDs(), "boom", func(*WorkerCtx) (any, error) {
			return nil, errors.New("worker exploded")
		})
		if err == nil || err.Error() != "tools: worker 0: worker exploded" {
			t.Errorf("opaque worker failure = %v", err)
		}
	})
}

// TestRefreshSizeOnGroupOfOne: on a group of one the server reads a file's
// size from its storage nodes, so a count that disagrees with what the
// workers wrote is a storage failure naming both counts, not the
// replicated-directory misuse ErrBadArg reports.
func TestRefreshSizeOnGroupOfOne(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *core.Cluster, c *core.Client) {
		if err := workload.Fill(p, c, "f", workload.Records(1, 6, 64)); err != nil {
			t.Error(err)
			return
		}
		if err := refreshSize(c, "f", 6); err != nil {
			t.Errorf("matching count: %v", err)
		}
		err := refreshSize(c, "f", 9)
		if !errors.Is(err, core.ErrLFSFailed) || errors.Is(err, core.ErrBadArg) {
			t.Errorf("wrong count on a group of one = %v, want ErrLFSFailed and not ErrBadArg", err)
		}
		if err == nil || !strings.Contains(err.Error(), "wrote 9 blocks") || !strings.Contains(err.Error(), "hold 6") {
			t.Errorf("wrong count on a group of one = %v, want both counts named", err)
		}
	})
}
