package fault_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"bridge/internal/chaosseed"
	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/fault"
	"bridge/internal/lfs"
	"bridge/internal/replica"
	"bridge/internal/sim"
	"bridge/internal/trace"
)

func chaosPayload(i int) []byte {
	b := make([]byte, core.PayloadBytes)
	for j := range b {
		b[j] = byte(i*131 + j*7)
	}
	return b
}

// runChaos executes one full seeded chaos scenario against a mirrored file:
// a lossy/delaying message window, a limping disk, and a node crash in the
// middle of a stream of appends, followed by restart, directory repair,
// resilvering, and full verification (contents plus a per-node EFS
// consistency check). It returns the virtual-time trace and the file's
// final contents so callers can assert exact replay.
func runChaos(t *testing.T, seed int64) (string, [][]byte) {
	t.Helper()
	const (
		p = 4
		n = 40
	)
	rt := sim.NewVirtual()
	tr := trace.New(1 << 20)
	inj := fault.New(seed)
	inj.SetTracer(tr)
	inj.MsgWindow(2*time.Second, 5*time.Second, fault.MsgFaults{
		DropProb:  0.05,
		DupProb:   0.05,
		DelayProb: 0.2,
		DelayMax:  20 * time.Millisecond,
	})
	inj.DiskWindow(3*time.Second, 6*time.Second, "disk0", fault.DiskFaults{
		ExtraLatency: 5 * time.Millisecond,
	})
	inj.NodeSchedule(
		fault.NodeEvent{At: 7 * time.Second, Node: 2, Kind: fault.Crash},
		fault.NodeEvent{At: 16 * time.Second, Node: 2, Kind: fault.Restart},
	)
	// Retry jitter seeds derive from the scenario seed, as bridge.Run does:
	// one seed determines faults and retransmission timing alike.
	lfsRetry := core.RetryPolicy{Attempts: 5}.WithSeed(inj.Seed(), "chaos.lfs")
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P:    p,
		Node: lfs.Config{DiskBlocks: 2048, Timing: disk.FixedTiming{Latency: time.Millisecond}},
		Server: core.Config{
			LFSTimeout: time.Second,
			LFSRetry:   &lfsRetry,
			Health:     &core.HealthConfig{},
		},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	cl.Net.SetTracer(tr)
	inj.AttachNetwork(cl.Net)
	for i, nd := range cl.Nodes {
		inj.AttachDisk(nd.Disk, fmt.Sprintf("disk%d", i))
	}
	inj.Drive(rt, cl)
	var contents [][]byte
	rt.Go("chaos-client", func(proc sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(proc, 0, "chaos")
		defer c.Close()
		c.SetTimeout(2 * time.Second)
		c.SetRetry(core.RetryPolicy{Attempts: 6}.WithSeed(inj.Seed(), "chaos.client"))
		m, err := replica.CreateMirror(proc, c, "f", p)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		// Append through the chaos: the message window forces client and
		// server retries, and the crash at 7s forces degraded appends once
		// the monitor marks the node Dead.
		for i := 0; i < n; i++ {
			if err := m.Append(chaosPayload(i)); err != nil {
				t.Errorf("Append %d at %v: %v", i, proc.Now(), err)
				return
			}
			proc.Sleep(300 * time.Millisecond)
		}
		if !m.Degraded() {
			t.Error("mirror never degraded despite the crash")
		}
		// Let the restarted node come back and be marked Healthy again.
		if until := 20*time.Second - proc.Now(); until > 0 {
			proc.Sleep(until)
		}
		if _, err := c.RepairNode(2); err != nil {
			t.Errorf("RepairNode: %v", err)
			return
		}
		if _, err := m.Resilver(); err != nil {
			t.Errorf("Resilver: %v", err)
			return
		}
		if m.Degraded() {
			t.Error("mirror still degraded after Resilver")
		}
		// Verify every block and keep the contents for replay comparison.
		for i := int64(0); i < n; i++ {
			data, err := m.Read(i)
			if err != nil {
				t.Errorf("final Read %d: %v", i, err)
				return
			}
			if !bytes.Equal(data, chaosPayload(int(i))) {
				t.Errorf("block %d corrupt after chaos and repair", i)
				return
			}
			contents = append(contents, data)
		}
		// Every node's volume must come out of the run self-consistent,
		// checked through the protocol-level fsck op (client → server →
		// LFS), so the op path itself is exercised under chaos too.
		for i := range cl.Nodes {
			rep, err := c.Fsck(i)
			if err != nil {
				t.Errorf("node %d fsck: %v", i, err)
				return
			}
			if !rep.OK() {
				t.Errorf("node %d volume inconsistent after chaos: %v", i, rep.Problems)
			}
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if inj.Stats().Get("fault.msg_dropped") == 0 {
		t.Error("chaos run dropped no messages — the fault window never bit")
	}
	if cl.Net.Stats().Get("replica.overflow_blocks") == 0 {
		t.Error("no degraded appends — the crash never bit")
	}
	retries := cl.Net.Stats().Get("bridge.client_retries") + cl.Net.Stats().Get("bridge.lfs_retries")
	if retries == 0 {
		t.Error("no retransmissions — the retry (and jitter) path never bit")
	}
	var sb strings.Builder
	if _, err := tr.WriteTo(&sb); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return sb.String(), contents
}

// msgSeed is the message-fault suite's seed: BRIDGE_MSG_SEED, or 42. A
// seed whose run trips only one of runChaos's "never bit" checks is vacuous,
// not broken: the sweep in seed-sweep.yml lists such seeds apart.
func msgSeed(t *testing.T) int64 {
	seed, _ := chaosseed.FromEnv(t, "BRIDGE_MSG_SEED", 42)
	chaosseed.Repro(t, "BRIDGE_MSG_SEED", seed, "./internal/fault/")
	return seed
}

func TestChaosRunRepairsAndVerifies(t *testing.T) {
	runChaos(t, msgSeed(t))
}

func TestChaosReplaysExactly(t *testing.T) {
	// Same seed: identical virtual-time trace and identical contents.
	seed := msgSeed(t)
	tr1, c1 := runChaos(t, seed)
	if t.Failed() {
		return
	}
	tr2, c2 := runChaos(t, seed)
	if tr1 != tr2 {
		t.Error("same seed produced different traces")
	}
	if len(c1) != len(c2) {
		t.Fatalf("same seed produced %d vs %d blocks", len(c1), len(c2))
	}
	for i := range c1 {
		if !bytes.Equal(c1[i], c2[i]) {
			t.Errorf("same seed produced different block %d", i)
		}
	}
	// Different seed: the fault pattern (and so the trace) differs.
	tr3, _ := runChaos(t, seed+1000)
	if tr3 == tr1 {
		t.Error("different seed replayed the first run's trace exactly")
	}
}
