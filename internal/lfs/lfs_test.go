package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// testCluster boots n storage nodes (ids 1..n) on a fresh virtual runtime.
// Node id 0 is left for the test's client process.
func testCluster(n int, cfg Config) (sim.Runtime, *msg.Network, []*Node) {
	rt := sim.NewVirtual()
	net := msg.NewNetwork(rt, msg.DefaultConfig())
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := StartNode(rt, net, msg.NodeID(i+1), cfg, nil)
		if err != nil {
			panic(err)
		}
		nodes[i] = node
	}
	return rt, net, nodes
}

func stopAll(nodes []*Node) {
	for _, n := range nodes {
		n.Stop()
	}
}

func TestClientRoundTrip(t *testing.T) {
	rt, net, nodes := testCluster(1, Config{DiskBlocks: 512, Timing: disk.FixedTiming{}})
	rt.Go("client", func(p sim.Proc) {
		defer stopAll(nodes)
		c := NewClient(p, net, 0, "cli")
		node := nodes[0].ID
		if err := c.Create(node, 7); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		hint := int32(-1)
		for i := 0; i < 10; i++ {
			var err error
			hint, err = c.Write(node, 7, uint32(i), []byte{byte(i)}, hint)
			if err != nil {
				t.Errorf("Write %d: %v", i, err)
				return
			}
		}
		info, err := c.Stat(node, 7)
		if err != nil || info.Blocks != 10 {
			t.Errorf("Stat = %+v, %v; want 10 blocks", info, err)
		}
		hint = -1
		for i := 0; i < 10; i++ {
			data, addr, err := c.Read(node, 7, uint32(i), hint)
			if err != nil || !bytes.Equal(data, []byte{byte(i)}) {
				t.Errorf("Read %d = %v, %v", i, data, err)
				return
			}
			hint = addr
		}
		freed, err := c.Delete(node, 7, 10, false)
		if err != nil || freed != 10 {
			t.Errorf("Delete = %d, %v; want 10", freed, err)
		}
		if err := c.Sync(node); err != nil {
			t.Errorf("Sync: %v", err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestErrorCodesSurviveTransport(t *testing.T) {
	rt, net, nodes := testCluster(1, Config{DiskBlocks: 256, Timing: disk.FixedTiming{}})
	rt.Go("client", func(p sim.Proc) {
		defer stopAll(nodes)
		c := NewClient(p, net, 0, "cli")
		node := nodes[0].ID
		if _, _, err := c.Read(node, 404, 0, -1); !errors.Is(err, efs.ErrNotFound) {
			t.Errorf("read missing = %v, want ErrNotFound", err)
		}
		c.Create(node, 1)
		if err := c.Create(node, 1); !errors.Is(err, efs.ErrExists) {
			t.Errorf("dup create = %v, want ErrExists", err)
		}
		if _, _, err := c.Read(node, 1, 5, -1); !errors.Is(err, efs.ErrBadBlockNum) {
			t.Errorf("read past end = %v, want ErrBadBlockNum", err)
		}
		if _, err := c.Write(node, 1, 5, []byte("x"), -1); !errors.Is(err, efs.ErrNotAppend) {
			t.Errorf("gap write = %v, want ErrNotAppend", err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestFailedNodeTimesOut(t *testing.T) {
	rt, net, nodes := testCluster(2, Config{DiskBlocks: 256, Timing: disk.FixedTiming{}})
	rt.Go("client", func(p sim.Proc) {
		defer stopAll(nodes)
		c := NewClient(p, net, 0, "cli")
		c.Create(nodes[0].ID, 1)
		nodes[0].Fail()
		_, err := c.C.CallTimeout(lfsAddr(nodes[0].ID), StatReq{FileID: 1}, 8, 100*time.Millisecond)
		if !errors.Is(err, msg.ErrTimeout) {
			t.Errorf("call to failed node = %v, want ErrTimeout", err)
		}
		// The healthy node still serves.
		if err := c.Create(nodes[1].ID, 1); err != nil {
			t.Errorf("healthy node create: %v", err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestAgentSpawnWorker(t *testing.T) {
	rt, net, nodes := testCluster(4, Config{DiskBlocks: 256, Timing: disk.FixedTiming{}})
	rt.Go("tool", func(p sim.Proc) {
		defer stopAll(nodes)
		c := NewClient(p, net, 0, "tool")
		done := net.Runtime().NewQueue("done")
		nodeIDs := []msg.NodeID{1, 2, 3, 4}
		err := spawnAll(c, nodeIDs, "worker", func(wp sim.Proc, node msg.NodeID) {
			// Worker proves it runs "on" its node by doing node-local
			// LFS traffic.
			wc := NewClient(wp, net, node, fmt.Sprintf("wrk%d", node))
			if err := wc.Create(node, ScratchBase+uint32(node)); err != nil {
				t.Errorf("worker create on node %d: %v", node, err)
			}
			done.Send(int(node))
			wc.C.Close()
		})
		if err != nil {
			t.Errorf("spawnAll: %v", err)
			return
		}
		seen := map[int]bool{}
		for range nodeIDs {
			v, ok := done.Recv(p)
			if !ok {
				t.Error("done queue closed early")
				return
			}
			seen[v.(int)] = true
		}
		if len(seen) != 4 {
			t.Errorf("workers ran on %d nodes, want 4", len(seen))
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// spawnAll starts a worker on every listed node, overlapping the spawns, and
// waits for all acknowledgements: the tools' spawn step without its worker
// plumbing. fn receives the node it runs on.
func spawnAll(c *Client, nodes []msg.NodeID, name string, fn WorkerFunc) error {
	calls := make([]Call, 0, len(nodes))
	for _, n := range nodes {
		call, err := c.Start(msg.Addr{Node: n, Port: AgentPortName}, SpawnReq{Name: name, Fn: fn})
		if err != nil {
			return err
		}
		calls = append(calls, call)
	}
	for _, call := range calls {
		if _, err := Reply[SpawnResp](c.Await(call)); err != nil {
			return err
		}
	}
	return nil
}

// treeBroadcast delivers op to the LFS server of every listed node through
// the embedded binary tree rooted at nodes[0], returning the first error: the
// Bridge Server's tree initiation (core.Server.lfsCreate) without its timeout.
func treeBroadcast(c *msg.Client, nodes []msg.NodeID, op any, opSize int) error {
	_, err := Reply[TreeResp](c.Call(msg.Addr{Node: nodes[0], Port: AgentPortName},
		TreeReq{Targets: nodes, Op: op, OpSize: opSize}, opSize+16))
	return err
}

func TestTreeBroadcastCreatesEverywhere(t *testing.T) {
	const p = 8
	rt, net, nodes := testCluster(p, Config{DiskBlocks: 256, Timing: disk.FixedTiming{}})
	rt.Go("tool", func(proc sim.Proc) {
		defer stopAll(nodes)
		c := msg.NewClient(proc, net, 0, "tool")
		ids := make([]msg.NodeID, p)
		for i := range ids {
			ids[i] = msg.NodeID(i + 1)
		}
		if err := treeBroadcast(c, ids, CreateReq{FileID: 99}, WireSize(CreateReq{})); err != nil {
			t.Errorf("tree create: %v", err)
			return
		}
		lc := &Client{C: c}
		for _, id := range ids {
			if _, err := lc.Stat(id, 99); err != nil {
				t.Errorf("node %d missing file after tree create: %v", id, err)
			}
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestTreeBroadcastPropagatesErrors(t *testing.T) {
	rt, net, nodes := testCluster(4, Config{DiskBlocks: 256, Timing: disk.FixedTiming{}})
	rt.Go("tool", func(proc sim.Proc) {
		defer stopAll(nodes)
		c := msg.NewClient(proc, net, 0, "tool")
		ids := []msg.NodeID{1, 2, 3, 4}
		// Pre-create on node 3 so the broadcast create collides there.
		lc := &Client{C: c}
		if err := lc.Create(3, 5); err != nil {
			t.Errorf("setup create: %v", err)
			return
		}
		err := treeBroadcast(c, ids, CreateReq{FileID: 5}, 8)
		if !errors.Is(err, efs.ErrExists) {
			t.Errorf("tree create = %v, want ErrExists from node 3", err)
		}
		// Any operation may ride the tree, and its failure keeps the class
		// the node gave it: these volumes are unjournaled, so none has a
		// recovery report.
		err = treeBroadcast(c, ids, RecoveryReq{}, 8)
		if !errors.Is(err, efs.ErrNotFound) {
			t.Errorf("tree recovery = %v, want the nodes' own ErrNotFound", err)
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestTreeBroadcastScalesLogarithmically(t *testing.T) {
	// With per-message CPU cost, sequential initiation is O(p) at the
	// sender while the tree is O(log p) end to end: the paper's
	// suggested improvement for Create.
	elapsed := func(p int, tree bool) time.Duration {
		rt, net, nodes := testCluster(p, Config{DiskBlocks: 256, Timing: disk.FixedTiming{}})
		var took time.Duration
		rt.Go("driver", func(proc sim.Proc) {
			defer stopAll(nodes)
			c := msg.NewClient(proc, net, 0, "driver")
			ids := make([]msg.NodeID, p)
			for i := range ids {
				ids[i] = msg.NodeID(i + 1)
			}
			proc.Sleep(time.Second) // let boot-time formatting finish
			start := proc.Now()
			if tree {
				if err := treeBroadcast(c, ids, CreateReq{FileID: 9}, 8); err != nil {
					t.Errorf("tree: %v", err)
				}
			} else {
				lc := &Client{C: c}
				var reqIDs []uint64
				for _, id := range ids {
					rid, err := lc.C.Start(lfsAddr(id), CreateReq{FileID: 9}, 8)
					if err != nil {
						t.Errorf("start: %v", err)
						return
					}
					reqIDs = append(reqIDs, rid)
				}
				for _, rid := range reqIDs {
					if _, err := lc.C.Await(rid); err != nil {
						t.Errorf("await: %v", err)
					}
				}
			}
			took = proc.Now() - start
		})
		if err := rt.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		return took
	}
	seq := elapsed(32, false)
	tree := elapsed(32, true)
	if tree >= seq {
		t.Errorf("tree broadcast (%v) not faster than sequential (%v) at p=32", tree, seq)
	}
}
