package replica

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/fault"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// cellPayload is a seeded payload of the given size.
func cellPayload(size, i int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*131 + j*7 + 1)
	}
	return b
}

// rmwCells replays what the read-modify-write append wrote: starting from
// nothing at a stripe's first cell, each data block is folded into each
// parity cell as old ^= coef·payload. It returns the parity cells of every
// stripe, [stripe][column].
func rmwCells(enc [][]byte, k, cell int, data [][]byte) [][][]byte {
	m := len(enc) - k
	var out [][][]byte
	for n, payload := range data {
		if n%k == 0 {
			stripe := make([][]byte, m)
			for j := range stripe {
				stripe[j] = make([]byte, cell)
			}
			out = append(out, stripe)
		}
		for j, old := range out[n/k] {
			coef := enc[k+j][n%k]
			for i, b := range payload {
				old[i] ^= gfMul(coef, b)
			}
		}
	}
	return out
}

// checkStripes holds every stripe of st that is not marked stale to the
// invariant: each readable parity cell is the encoding of the stripe's data.
// It returns how many cells it compared.
func checkStripes(t *testing.T, st *stripes, data [][]byte) int {
	t.Helper()
	checked := 0
	for s, want := range rmwCells(st.enc, st.k, st.cell, data) {
		if st.dirty[int64(s)] {
			continue
		}
		for j, col := range st.cols {
			got, err := st.c.ReadAt(col, int64(s))
			if err != nil {
				continue // lost with its node; Rebuild's business
			}
			checked++
			if !bytes.Equal(got, want[j]) {
				t.Errorf("%s stripe %d: column %d is not the encoding of its data and the stripe is not marked stale", st.what, s, j)
			}
		}
	}
	return checked
}

// TestAccumulatorCellsMatchReadModifyWrite is test (h): the parity cells an
// append computes from the handle's accumulators are byte for byte what the
// read-modify-write append wrote, for Parity and RS, full and partial
// stripes, short RS cells, and a handle reopened mid-stripe.
func TestAccumulatorCellsMatchReadModifyWrite(t *testing.T) {
	withCluster(t, 8, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		pf, err := CreateParity(proc, c, "par", 8)
		if err != nil {
			t.Errorf("CreateParity: %v", err)
			return
		}
		rs, err := CreateRS(proc, c, "rs", RSOptions{K: 6, M: 2, BlockBytes: 700})
		if err != nil {
			t.Errorf("CreateRS: %v", err)
			return
		}
		const n = 23 // partial last stripe for k=7 and k=6 alike
		var pdata, rdata [][]byte
		for i := 0; i < n; i++ {
			if i == 10 { // mid-stripe for both
				if pf, err = OpenParity(proc, c, "par", 8); err != nil {
					t.Errorf("OpenParity: %v", err)
					return
				}
				if rs, err = OpenRS(proc, c, "rs", RSOptions{K: 6, M: 2, BlockBytes: 700}); err != nil {
					t.Errorf("OpenRS: %v", err)
					return
				}
			}
			pdata, rdata = append(pdata, cellPayload(core.PayloadBytes, i)), append(rdata, cellPayload(700, 1000+i))
			if err := pf.Append(pdata[i]); err != nil {
				t.Errorf("parity Append %d: %v", i, err)
				return
			}
			if err := rs.Append(rdata[i]); err != nil {
				t.Errorf("RS Append %d: %v", i, err)
				return
			}
		}
		if got, want := checkStripes(t, &pf.stripes, pdata), 4; got != want {
			t.Errorf("compared %d parity cells, want %d", got, want)
		}
		if got, want := checkStripes(t, &rs.stripes, rdata), 8; got != want {
			t.Errorf("compared %d RS cells, want %d", got, want)
		}
		if pf.Degraded() || rs.Degraded() {
			t.Error("a clean run left a stripe marked stale")
		}
	})
}

// loseWrite fails storage node index node the moment the server sends it a
// block write, and loses that write: its outcome is unknown to everyone.
// With keep set the node stays up and only the write is lost. It counts the
// scatter requests it sees.
type loseWrite struct {
	cl       *core.Cluster
	node     int
	keep     bool
	done     bool
	scatters int
}

func (f *loseWrite) Deliver(_ time.Duration, _ msg.NodeID, to msg.Addr, m *msg.Message) msg.Fate {
	if _, ok := m.Body.(core.ScatterReq); ok {
		f.scatters++
	}
	if _, write := m.Body.(lfs.WriteReq); f.done || !write || to.Node != f.cl.Nodes[f.node].ID {
		return msg.Fate{}
	}
	f.done = true
	if !f.keep {
		f.cl.FailNode(f.node)
	}
	return msg.Fate{Drop: true}
}

// TestHalfLandedScatterMarksStripeStale is the second half of test (g): a
// scatter whose data block has an unknown outcome while its parity cells
// landed leaves the stripe marked stale; Rebuild clears the mark and the
// retried append then lands clean. The cluster has no health monitor, so
// the lost write is a timeout, not an ErrNodeDown that would divert it.
func TestHalfLandedScatterMarksStripeStale(t *testing.T) {
	withCluster(t, 5, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		rs, err := CreateRS(proc, c, "f", RSOptions{K: 3, M: 2})
		if err != nil {
			t.Errorf("CreateRS: %v", err)
			return
		}
		var data [][]byte
		for i := 0; i < 4; i++ {
			data = append(data, fullPayload(i))
			if err := rs.Append(data[i]); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		// Block 4 is cell 1 of stripe 1, on data node index 1.
		cl.Net.SetFault(&loseWrite{cl: cl, node: 1})
		err = rs.Append(fullPayload(4))
		if err == nil || errors.Is(err, ErrDegradedWrite) || rs.Blocks() != 4 {
			t.Errorf("append with its data write lost: %v, %d blocks; want a failed append", err, rs.Blocks())
			return
		}
		if !rs.dirty[1] || rs.dirty[0] {
			t.Errorf("stale stripes %v; want exactly stripe 1, whose parity landed beside a lost data block", rs.dirty)
			return
		}
		cl.RestartNode(1)
		detect(proc)
		if _, err := c.RepairNode(1); err != nil {
			t.Errorf("RepairNode: %v", err)
			return
		}
		// The restart also cost node 1 its unsynced blocks; Rebuild first
		// (appends need every local file whole), then the retry.
		if _, err := rs.Rebuild(); err != nil || rs.Degraded() {
			t.Errorf("Rebuild: %v, degraded %v", err, rs.Degraded())
			return
		}
		data = append(data, fullPayload(4))
		if err := rs.Append(data[4]); err != nil {
			t.Errorf("retried Append: %v", err)
			return
		}
		if checkStripes(t, &rs.stripes, data) != 4 {
			t.Error("not every parity cell was readable after Rebuild")
		}
		for i, want := range data {
			if got, err := rs.Read(int64(i)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("Read %d after Rebuild: %v", i, err)
			}
		}
	})
}

// TestHalfLandedScatterWithMonitorDiverts is the monitored twin of
// TestHalfLandedScatterMarksStripeStale: with a health monitor, the data
// write abandoned in flight fails with ErrNodeDown, so the data file
// diverts and the append lands beside the parity cells that landed, with
// its stripe consistent. Rebuild folds the overflow back in.
func TestHalfLandedScatterWithMonitorDiverts(t *testing.T) {
	withRobustCluster(t, 5, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		rs, err := CreateRS(proc, c, "f", RSOptions{K: 3, M: 2})
		if err != nil {
			t.Errorf("CreateRS: %v", err)
			return
		}
		var data [][]byte
		for i := 0; i < 5; i++ {
			if i == 4 {
				// Block 4 is cell 1 of stripe 1, on data node index 1.
				cl.Net.SetFault(&loseWrite{cl: cl, node: 1})
			}
			data = append(data, fullPayload(i))
			if err := rs.Append(data[i]); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		if len(rs.dirty) != 0 || rs.gaps[0].start != 4 || !rs.Degraded() {
			t.Errorf("stale stripes %v, data gap at %d; want none stale and the data file diverted at block 4", rs.dirty, rs.gaps[0].start)
		}
		if checkStripes(t, &rs.stripes, data) != 4 {
			t.Error("not every parity cell was readable")
		}
		for i, want := range data {
			if got, err := rs.Reconstruct(int64(i)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("Reconstruct %d: %v", i, err)
			}
		}
		cl.RestartNode(1)
		detect(proc)
		if _, err := c.RepairNode(1); err != nil {
			t.Errorf("RepairNode: %v", err)
			return
		}
		if _, err := rs.Rebuild(); err != nil || rs.Degraded() {
			t.Errorf("Rebuild: %v, degraded %v", err, rs.Degraded())
			return
		}
		if checkStripes(t, &rs.stripes, data) != 4 {
			t.Error("not every parity cell was readable after Rebuild")
		}
		for i, want := range data {
			if got, err := c.ReadAt("f", int64(i)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("data file block %d after Rebuild: %v", i, err)
			}
		}
	})
}

// TestStripeInvariantUnderFaults is test (g): thirty seeded runs of appends
// through a node kill, transient disk errors and message loss, with handles
// reopened mid-stripe. Whatever the appends returned, every stripe either
// holds the encoding of the data the handle acknowledged or is marked stale;
// and once the node is back, Rebuild restores every cell and every block.
func TestStripeInvariantUnderFaults(t *testing.T) {
	rebuilt, failed, degraded, diverted := 0, 0, 0, 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const p = 5
		victim := rng.Intn(p)
		killAt := 4 + rng.Intn(20)
		rt := sim.NewVirtual()
		inj := fault.New(seed)
		inj.MsgWindow(2*time.Second, 6*time.Second, fault.MsgFaults{DropProb: 0.04, DupProb: 0.04})
		inj.DiskWindow(4*time.Second, 8*time.Second, "", fault.DiskFaults{ReadErrProb: 0.05, WriteErrProb: 0.05})
		lfsRetry := core.RetryPolicy{Attempts: 3}.WithSeed(seed, "stripes.lfs")
		cl, err := core.StartCluster(rt, core.ClusterConfig{
			P:    p,
			Node: lfs.Config{DiskBlocks: 2048, Timing: disk.FixedTiming{Latency: time.Millisecond}},
			Server: core.Config{
				LFSTimeout: 500 * time.Millisecond,
				LFSRetry:   &lfsRetry,
				Health:     &core.HealthConfig{},
			},
		})
		if err != nil {
			t.Fatalf("StartCluster: %v", err)
		}
		inj.AttachNetwork(cl.Net)
		for i, nd := range cl.Nodes {
			inj.AttachDisk(nd.Disk, fmt.Sprintf("disk%d", i))
		}
		rt.Go("stripes-client", func(proc sim.Proc) {
			defer cl.Stop()
			c := cl.NewClient(proc, 0, "stripes")
			defer c.Close()
			c.SetTimeout(10 * time.Second)
			c.SetRetry(core.RetryPolicy{Attempts: 4}.WithSeed(seed, "stripes.client"))
			// Even seeds below 20 run Parity over all five nodes, odd ones
			// RS(3,2), and seeds from 20 on a Mirror.
			open := func(create bool) (*stripes, error) {
				var pf *Parity
				var rs *RS
				var mf *Mirror
				var err error
				switch {
				case seed >= 20 && create:
					mf, err = CreateMirror(proc, c, "f", p)
				case seed >= 20:
					mf, err = OpenMirror(proc, c, "f")
				case seed%2 == 0 && create:
					pf, err = CreateParity(proc, c, "f", p)
				case seed%2 == 0:
					pf, err = OpenParity(proc, c, "f", p)
				case create:
					rs, err = CreateRS(proc, c, "f", RSOptions{K: 3, M: 2})
				default:
					rs, err = OpenRS(proc, c, "f", RSOptions{K: 3, M: 2})
				}
				switch {
				case err != nil:
					return nil, err
				case mf != nil:
					return &mf.stripes, nil
				case pf != nil:
					return &pf.stripes, nil
				}
				return &rs.stripes, nil
			}
			st, err := open(true)
			if err != nil {
				t.Errorf("seed %d: create: %v", seed, err)
				return
			}
			var data [][]byte
			for step := 0; step < 36; step++ {
				if step == killAt {
					cl.FailNode(victim)
				}
				// A fresh handle forgets which stripes are stale, so reopen
				// only a clean one.
				if rng.Intn(6) == 0 && !st.Degraded() {
					if again, err := open(false); err == nil {
						st = again
					}
				}
				payload := cellPayload(core.PayloadBytes, int(seed)*100+step)
				err := st.Append(payload)
				switch {
				case err == nil:
					data = append(data, payload)
				case errors.Is(err, ErrDegradedWrite):
					degraded++
					data = append(data, payload)
				default:
					failed++
				}
				if int(st.Blocks()) != len(data) {
					t.Errorf("seed %d step %d: handle holds %d blocks after %v, acknowledged %d", seed, step, st.Blocks(), err, len(data))
					return
				}
				proc.Sleep(250 * time.Millisecond)
			}
			for _, g := range st.gaps {
				if g.start >= 0 {
					diverted++
				}
			}
			// Faults over; bring the node back and hold the invariant.
			cl.RestartNode(victim)
			proc.Sleep(6 * time.Second)
			if _, err := c.RepairNode(victim); err != nil {
				t.Errorf("seed %d: RepairNode: %v", seed, err)
				return
			}
			checkStripes(t, st, data)
			// A stripe that is stale and has also lost a data block with the
			// node is beyond the code; otherwise Rebuild restores everything.
			if _, err := st.Rebuild(); err != nil {
				if !errors.Is(err, ErrTooManyFailures) {
					t.Errorf("seed %d: Rebuild: %v", seed, err)
				}
				return
			}
			rebuilt++
			if st.Degraded() {
				t.Errorf("seed %d: still degraded after Rebuild", seed)
			}
			if got, want := checkStripes(t, st, data), len(rmwCells(st.enc, st.k, st.cell, data))*len(st.cols); got != want {
				t.Errorf("seed %d: %d of %d parity cells readable after Rebuild", seed, got, want)
			}
			for i, want := range data {
				if got, err := st.Read(int64(i)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("seed %d: Read %d after Rebuild: %v", seed, i, err)
					return
				}
			}
		})
		if err := rt.Wait(); err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
	}
	t.Logf("%d appends failed, %d landed degraded, %d files diverted, %d of 30 seeds ended in a full Rebuild", failed, degraded, diverted, rebuilt)
	if rebuilt < 10 || failed == 0 || degraded == 0 || diverted == 0 {
		t.Errorf("the seeds must exercise failed appends, degraded appends, diverted files and full rebuilds")
	}
}

// TestMirrorAppendRetryIsIdempotent is the regression test for a retried
// Mirror.Append after a half failure: the primary's write lands, the
// shadow's fails once with something other than a dead node, the caller
// retries — and both copies hold every block exactly once, in order.
func TestMirrorAppendRetryIsIdempotent(t *testing.T) {
	rt := sim.NewVirtual()
	inj := fault.New(1)
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P:    4,
		Node: lfs.Config{DiskBlocks: 2048, Timing: disk.FixedTiming{}},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	for i, nd := range cl.Nodes {
		inj.AttachDisk(nd.Disk, fmt.Sprintf("disk%d", i))
	}
	rt.Go("mirror-retry", func(proc sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(proc, 0, "mirror-retry")
		defer c.Close()
		m, err := CreateMirror(proc, c, "f", 4)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		const n = 6
		for i := 0; i < n; i++ {
			if i == 2 {
				// Block 2 of the primary lives on node index 2, of the
				// shadow on node index 3: fail every write there, once.
				inj.DiskWindow(proc.Now(), proc.Now()+20*time.Millisecond, "disk3", fault.DiskFaults{WriteErrProb: 1})
				if err := m.Append(fullPayload(i)); err == nil || m.Blocks() != 2 {
					t.Errorf("Append with the shadow's disk failing: %v, %d blocks; want a failure that appends nothing", err, m.Blocks())
					return
				}
				proc.Sleep(40 * time.Millisecond)
			}
			if err := m.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		for _, name := range []string{"f", shadowName("f")} {
			meta, err := c.Stat(name)
			if err != nil || meta.Blocks != n {
				t.Errorf("%s: %d blocks, %v; want %d", name, meta.Blocks, err, n)
			}
			for i := 0; i < n; i++ {
				if got, err := c.ReadAt(name, int64(i)); err != nil || !bytes.Equal(got, fullPayload(i)) {
					t.Errorf("%s block %d does not hold logical block %d (%v)", name, i, i, err)
				}
			}
		}
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}
