package core

import (
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// A distributed server collection runs one health monitor per server, and
// they can disagree (a partition may cut one server off from a node while
// another still reaches it). Client.Health must aggregate across all
// servers with the worst state winning per node — the regression was
// asking only servers[0].
func TestHealthAggregatesWorstAcrossServers(t *testing.T) {
	rt := sim.NewVirtual()
	net := msg.NewNetwork(rt, msg.Config{})

	// Two fake servers with conflicting views of nodes 1..3.
	views := [][]NodeHealth{
		{{Node: 1, State: Healthy}, {Node: 2, State: Suspect}, {Node: 3, State: Healthy}},
		{{Node: 1, State: Dead}, {Node: 2, State: Healthy}, {Node: 3, State: Suspect}},
	}
	addrs := make([]msg.Addr, len(views))
	ports := make([]*msg.Port, len(views))
	for i, v := range views {
		v := v
		addr := msg.Addr{Node: 0, Port: "fake-srv" + string(rune('a'+i))}
		addrs[i] = addr
		port := net.NewPort(addr)
		ports[i] = port
		rt.Go(addr.Port, func(p sim.Proc) {
			msg.Serve(p, net, 0, port, func(proc sim.Proc, req *msg.Message) (any, int) {
				if _, ok := req.Body.(HealthReq); !ok {
					t.Errorf("fake server got %T", req.Body)
				}
				resp := HealthResp{States: v}
				return resp, WireSize(resp)
			})
		})
	}

	var got []NodeHealth
	var err error
	rt.Go("health-client", func(p sim.Proc) {
		c := NewMultiClient(p, net, 0, "health-cli", addrs)
		defer c.Close()
		got, err = c.Health()
		for _, port := range ports {
			port.Close()
		}
	})
	if werr := rt.Wait(); werr != nil {
		t.Fatalf("sim: %v", werr)
	}
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	want := map[msg.NodeID]HealthState{1: Dead, 2: Suspect, 3: Suspect}
	if len(got) != len(want) {
		t.Fatalf("Health returned %d states, want %d: %+v", len(got), len(want), got)
	}
	for _, st := range got {
		if st.State != want[st.Node] {
			t.Errorf("node %d = %v, want %v (worst across servers)", st.Node, st.State, want[st.Node])
		}
	}
}

// A storage node whose volume does not boot answers every request with the
// boot error. The heartbeat monitor must count that answer as a missed
// probe — the node is as down as a silent one — while the node it can boot
// stays Healthy.
func TestHealthCountsUnbootableNodeDead(t *testing.T) {
	disks := []*disk.Disk{
		disk.New(disk.Config{NumBlocks: 2048, Timing: disk.FixedTiming{}}),
		disk.New(disk.Config{NumBlocks: 2048, Timing: disk.FixedTiming{}}),
	}
	rt := sim.NewVirtual()
	if err := rt.Run("format", func(p sim.Proc) {
		for _, d := range disks {
			if _, err := efs.Format(p, d, efs.Options{}); err != nil {
				t.Errorf("Format: %v", err)
				return
			}
		}
		// Zero the second volume's bitmap: its mount fails its checksum.
		bitmap := 1 + 16 // after the superblock and the default 16 buckets
		if err := disks[1].WriteBlock(p, bitmap, make([]byte, efs.BlockSize)); err != nil {
			t.Errorf("WriteBlock: %v", err)
		}
	}); err != nil {
		t.Fatalf("sim: %v", err)
	}
	cfg := fastCfg(2)
	cfg.Disks = disks
	cfg.Server.Health = &HealthConfig{}
	withCluster(t, cfg, func(p sim.Proc, cl *Cluster, c *Client) {
		p.Sleep(5 * time.Second)
		got, err := c.Health()
		if err != nil {
			t.Errorf("Health: %v", err)
			return
		}
		want := map[msg.NodeID]HealthState{cl.Nodes[0].ID: Healthy, cl.Nodes[1].ID: Dead}
		for _, st := range got {
			if st.State != want[st.Node] {
				t.Errorf("node %d = %v, want %v", st.Node, st.State, want[st.Node])
			}
		}
	})
}
