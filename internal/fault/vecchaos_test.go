package fault_test

import (
	"bytes"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/fault"
	"bridge/internal/lfs"
	"bridge/internal/sim"
)

// runVecChaos drives the vectored scatter-gather path (WriteAtN / SeqReadN
// with server read-ahead) through a seeded chaos scenario: a lossy message
// window over the batched traffic, then a node crash that batched reads
// must fail fast on rather than hang, then restart + RepairNode + a full
// batched rewrite and verification. Returns the run's Chrome trace and the
// final contents for exact-replay assertions.
func runVecChaos(t *testing.T, seed int64) (string, [][]byte) {
	t.Helper()
	const (
		p     = 4
		n     = 48
		batch = 16
	)
	rt := sim.NewVirtual()
	inj := fault.New(seed)
	inj.MsgWindow(2*time.Second, 7*time.Second, fault.MsgFaults{
		DropProb:  0.05,
		DupProb:   0.05,
		DelayProb: 0.2,
		DelayMax:  20 * time.Millisecond,
	})
	inj.NodeSchedule(
		fault.NodeEvent{At: 30 * time.Second, Node: 2, Kind: fault.Crash},
		fault.NodeEvent{At: 40 * time.Second, Node: 2, Kind: fault.Restart},
	)
	lfsRetry := core.RetryPolicy{Attempts: 5}.WithSeed(inj.Seed(), "vecchaos.lfs")
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P:    p,
		Node: lfs.Config{DiskBlocks: 2048, Timing: disk.FixedTiming{Latency: time.Millisecond}},
		Server: core.Config{
			LFSTimeout: time.Second,
			LFSRetry:   &lfsRetry,
			Health:     &core.HealthConfig{},
			ReadAhead:  2,
		},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	rec := observe(inj, cl)
	inj.Drive(rt, cl)
	pay := func(version, i int) []byte {
		b := make([]byte, core.PayloadBytes)
		for j := range b {
			b[j] = byte(version*17 + i*131 + j*7)
		}
		return b
	}
	var contents [][]byte
	rt.Go("vecchaos-client", func(proc sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(proc, 0, "vecchaos")
		defer c.Close()
		c.SetTimeout(2 * time.Second)
		c.SetRetry(core.RetryPolicy{Attempts: 6}.WithSeed(inj.Seed(), "vecchaos.client"))
		// Heavy message loss can make the health monitor falsely declare a
		// node Dead mid-window; batched ops then fail fast by design. Ride
		// out such transients with bounded retries — the monitor revives
		// the node as soon as a probe gets through again.
		readBatch := func() ([][]byte, error) {
			var lastErr error
			for attempt := 0; attempt < 8; attempt++ {
				blocks, _, err := c.SeqReadN("f", batch)
				if err == nil {
					return blocks, nil
				}
				lastErr = err
				proc.Sleep(400 * time.Millisecond)
			}
			return nil, lastErr
		}
		writeBatch := func(start int, blocks [][]byte) error {
			var lastErr error
			for attempt := 0; attempt < 8; attempt++ {
				wrote, err := c.WriteAtN("f", int64(start), blocks)
				if err == nil && wrote == len(blocks) {
					return nil
				}
				// A prefix landed; retry the tail only.
				start += wrote
				blocks = blocks[wrote:]
				lastErr = err
				proc.Sleep(400 * time.Millisecond)
			}
			return lastErr
		}
		if _, err := c.Create("f"); err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		// Seed the file and open it before the fault window: Open's stat
		// fan-out is not retried, but the vectored ops under test are.
		for start := 0; start < n; start += batch {
			blocks := make([][]byte, batch)
			for i := range blocks {
				blocks[i] = pay(1, start+i)
			}
			wrote, err := c.WriteAtN("f", int64(start), blocks)
			if err != nil || wrote != batch {
				t.Errorf("WriteAtN at %d: wrote %d, %v", start, wrote, err)
				return
			}
		}
		if _, err := c.Open("f"); err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if until := 2500*time.Millisecond - proc.Now(); until > 0 {
			proc.Sleep(until)
		}
		// Batched reads straight through the lossy window, through the
		// server read-ahead cache: drops and dups must be absorbed by the
		// per-node vectored retries.
		for i := 0; i < n; {
			blocks, err := readBatch()
			if err != nil {
				t.Errorf("SeqReadN at %d: %v", i, err)
				return
			}
			for _, data := range blocks {
				if !bytes.Equal(data, pay(1, i)) {
					t.Errorf("block %d corrupt under message faults", i)
					return
				}
				i++
			}
			proc.Sleep(300 * time.Millisecond)
		}
		// Batched overwrites while the window is still biting: retries
		// reuse the per-node OpID, so duplicated deliveries stay
		// idempotent and the rewrite lands exactly once.
		for start := 0; start < n; start += batch {
			blocks := make([][]byte, batch)
			for i := range blocks {
				blocks[i] = pay(2, start+i)
			}
			if err := writeBatch(start, blocks); err != nil {
				t.Errorf("fault-window WriteAtN at %d: %v", start, err)
				return
			}
			proc.Sleep(300 * time.Millisecond)
		}
		if _, err := c.Open("f"); err != nil {
			t.Errorf("reopen after overwrite: %v", err)
			return
		}
		for i := 0; i < n; {
			blocks, err := readBatch()
			if err != nil {
				t.Errorf("post-overwrite SeqReadN at %d: %v", i, err)
				return
			}
			for _, data := range blocks {
				if !bytes.Equal(data, pay(2, i)) {
					t.Errorf("block %d stale after fault-window overwrite", i)
					return
				}
				i++
			}
		}
		// Crash at 30s (long after the fault window has drained, even with
		// worst-case retry tails): a batched read spanning the dead node
		// must fail
		// (fast via the health monitor or by exhausting retries), never
		// hang the gather.
		if until := 35*time.Second - proc.Now(); until > 0 {
			proc.Sleep(until)
		}
		if _, err := c.ReadAtN("f", 0, batch); err == nil {
			t.Error("batched read across a crashed node reported success")
		}
		// Restart at 40s, then repair and rewrite everything: RepairNode
		// must flush the server read-ahead cache so none of the pre-crash
		// buffered blocks survive into the verification pass.
		if until := 45*time.Second - proc.Now(); until > 0 {
			proc.Sleep(until)
		}
		if _, err := c.RepairNode(2); err != nil {
			t.Errorf("RepairNode: %v", err)
			return
		}
		for start := 0; start < n; start += batch {
			blocks := make([][]byte, batch)
			for i := range blocks {
				blocks[i] = pay(3, start+i)
			}
			wrote, err := c.WriteAtN("f", int64(start), blocks)
			if err != nil || wrote != batch {
				t.Errorf("rewrite WriteAtN at %d: wrote %d, %v", start, wrote, err)
				return
			}
		}
		if _, err := c.Open("f"); err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		for i := 0; i < n; {
			blocks, _, err := c.SeqReadN("f", batch)
			if err != nil {
				t.Errorf("final SeqReadN at %d: %v", i, err)
				return
			}
			for _, data := range blocks {
				if !bytes.Equal(data, pay(3, i)) {
					t.Errorf("block %d corrupt after repair and rewrite", i)
					return
				}
				contents = append(contents, data)
				i++
			}
		}
		// Every node's volume must come out of the run self-consistent,
		// checked through the protocol-level fsck op.
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
	retries := cl.Net.Stats().Get("bridge.client_retries") + cl.Net.Stats().Get("bridge.lfs_retries")
	if retries == 0 {
		t.Error("no retransmissions — the vectored retry path never bit")
	}
	if cl.Net.Stats().Get("bridge.ra_hits") == 0 {
		t.Error("no read-ahead hits — the batched reads bypassed the cache")
	}
	return chromeTrace(t, rec), contents
}

func TestVecChaosSurvivesAndVerifies(t *testing.T) {
	runVecChaos(t, 97)
}

func TestVecChaosReplaysExactly(t *testing.T) {
	tr1, c1 := runVecChaos(t, 97)
	if t.Failed() {
		return
	}
	tr2, c2 := runVecChaos(t, 97)
	if tr1 != tr2 {
		t.Error("same seed produced different traces on the vectored path")
	}
	if len(c1) != len(c2) {
		t.Fatalf("same seed produced %d vs %d blocks", len(c1), len(c2))
	}
	for i := range c1 {
		if !bytes.Equal(c1[i], c2[i]) {
			t.Errorf("same seed produced different block %d", i)
		}
	}
	tr3, _ := runVecChaos(t, 1097)
	if tr3 == tr1 {
		t.Error("different seed replayed the first run's trace exactly")
	}
}
