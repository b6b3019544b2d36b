package replica

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/lfs"
	"bridge/internal/sim"
)

// withRobustCluster boots a cluster with health monitoring and LFS retries —
// the configuration degraded writes require (the degrade trigger is the
// monitor's ErrNodeDown fast-fail).
func withRobustCluster(t *testing.T, p int, fn func(proc sim.Proc, cl *core.Cluster, c *core.Client)) {
	t.Helper()
	rt := sim.NewVirtual()
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P:    p,
		Node: lfs.Config{DiskBlocks: 2048, Timing: disk.FixedTiming{}},
		Server: core.Config{
			LFSTimeout: 2 * time.Second,
			LFSRetry:   &core.RetryPolicy{Seed: 7},
			Health:     &core.HealthConfig{},
		},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	rt.Go("replica-test", func(proc sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(proc, 0, "replica-cli")
		defer c.Close()
		c.SetTimeout(30 * time.Second)
		fn(proc, cl, c)
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// detect sleeps long enough for the health monitor to notice a change
// (default config: 1s heartbeats, Dead after 3 consecutive misses).
func detect(proc sim.Proc) { proc.Sleep(6 * time.Second) }

func TestMirrorDegradedAppendAndResilver(t *testing.T) {
	withRobustCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		m, err := CreateMirror(proc, c, "f", 4)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		const n = 16
		for i := 0; i < n/2; i++ {
			if err := m.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		cl.FailNode(1)
		detect(proc)
		// Appends keep working: the copies blocked by the dead node divert
		// into overflow files on the survivors.
		for i := n / 2; i < n; i++ {
			if err := m.Append(fullPayload(i)); err != nil {
				t.Errorf("degraded Append %d: %v", i, err)
				return
			}
		}
		if !m.Degraded() {
			t.Error("mirror not degraded after appends past a dead node")
		}
		// Every block stays readable while degraded.
		for i := int64(0); i < n; i++ {
			data, err := m.Read(i)
			if err != nil || !bytes.Equal(data, fullPayload(int(i))) {
				t.Errorf("degraded Read %d: %v", i, err)
				return
			}
		}
		// Recovery: restart, re-register the node's files, resilver.
		cl.RestartNode(1)
		detect(proc)
		if _, err := c.RepairNode(1); err != nil {
			t.Errorf("RepairNode: %v", err)
			return
		}
		repaired, err := m.Resilver()
		if err != nil {
			t.Errorf("Resilver: %v", err)
			return
		}
		if repaired == 0 {
			t.Error("Resilver repaired nothing")
		}
		if m.Degraded() {
			t.Error("mirror still degraded after Resilver")
		}
		// Full redundancy is back: every block must survive the loss of a
		// DIFFERENT node, which requires both copies to be intact.
		cl.FailNode(2)
		detect(proc)
		for i := int64(0); i < n; i++ {
			data, err := m.Read(i)
			if err != nil || !bytes.Equal(data, fullPayload(int(i))) {
				t.Errorf("post-resilver Read %d with node 2 dead: %v", i, err)
				return
			}
		}
	})
}

func TestMirrorFastFailover(t *testing.T) {
	// With health monitoring, reads touching a dead node fast-fail with
	// ErrNodeDown and fall over to the surviving copy instead of waiting
	// out the 60s LFS timeout.
	withRobustCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		m, err := CreateMirror(proc, c, "f", 4)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		const n = 8
		for i := 0; i < n; i++ {
			m.Append(fullPayload(i))
		}
		cl.FailNode(1)
		detect(proc)
		start := proc.Now()
		for i := int64(0); i < n; i++ {
			if _, err := m.Read(i); err != nil {
				t.Errorf("failover Read %d: %v", i, err)
				return
			}
		}
		if elapsed := proc.Now() - start; elapsed > 10*time.Second {
			t.Errorf("failover reads took %v, want well under the 60s timeout", elapsed)
		}
	})
}

func TestParityDegradedAppendAndRebuild(t *testing.T) {
	withRobustCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		pf, err := CreateParity(proc, c, "f", 4)
		if err != nil {
			t.Errorf("CreateParity: %v", err)
			return
		}
		for i := 0; i < 6; i++ {
			if err := pf.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		// Kill the parity node; the next append's parity cell diverts to the
		// column's overflow file, so the append lands with full redundancy.
		cl.FailNode(3)
		detect(proc)
		if err := pf.Append(fullPayload(6)); err != nil {
			t.Errorf("Append with the parity node dead = %v, want nil", err)
			return
		}
		if !pf.Degraded() {
			t.Error("parity file not degraded")
		}
		// The data block itself is durable and readable.
		if data, err := pf.Read(6); err != nil || !bytes.Equal(data, fullPayload(6)) {
			t.Errorf("Read of degraded-written block: %v", err)
			return
		}
		// Its stripe kept every cell: reconstruction decodes it from the
		// diverted parity cell.
		if data, err := pf.Reconstruct(6); err != nil || !bytes.Equal(data, fullPayload(6)) {
			t.Errorf("Reconstruct of the diverted stripe: %v", err)
		}
		// Recovery: restart the parity node, re-register, rebuild.
		cl.RestartNode(3)
		detect(proc)
		if _, err := c.RepairNode(3); err != nil {
			t.Errorf("RepairNode: %v", err)
			return
		}
		rebuilt, err := pf.Rebuild()
		if err != nil {
			t.Errorf("Rebuild: %v", err)
			return
		}
		if rebuilt == 0 {
			t.Error("Rebuild repaired nothing")
		}
		if pf.Degraded() {
			t.Error("parity file still degraded after Rebuild")
		}
		// Full redundancy is back: every block (including the one written
		// degraded) must survive the loss of a data node.
		cl.FailNode(0)
		detect(proc)
		for i := int64(0); i < 7; i++ {
			data, err := pf.Read(i)
			if err != nil || !bytes.Equal(data, fullPayload(int(i))) {
				t.Errorf("post-rebuild Read %d with node 0 dead: %v", i, err)
				return
			}
		}
	})
}

func TestParityReconstructAtStripeBoundaries(t *testing.T) {
	// p=5: stripes are 4 data blocks wide; 9 blocks leave the final stripe
	// partial (one block). Reconstruction must be exact at the first and
	// last block of a stripe and within the partial final stripe.
	withCluster(t, 5, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		pf, err := CreateParity(proc, c, "f", 5)
		if err != nil {
			t.Errorf("CreateParity: %v", err)
			return
		}
		const n = 9
		for i := 0; i < n; i++ {
			if err := pf.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		for _, b := range []int64{0, 3, 4, 7, 8} {
			rec, err := pf.Reconstruct(b)
			if err != nil {
				t.Errorf("Reconstruct %d: %v", b, err)
				return
			}
			if !bytes.Equal(rec, fullPayload(int(b))) {
				t.Errorf("reconstructed boundary block %d differs", b)
			}
		}
		if _, err := pf.Reconstruct(int64(n)); err == nil {
			t.Error("Reconstruct past EOF succeeded")
		}
		// The partial final stripe reconstructs after a real failure too:
		// block 8 lives on data node index 0 (8 % 4 == 0).
		cl.FailNode(0)
		data, err := pf.Read(8)
		if err != nil || !bytes.Equal(data, fullPayload(8)) {
			t.Errorf("partial-stripe failover Read: %v", err)
		}
	})
}

// TestDeadDataNodeDiverts: with a data node known dead, Parity and RS
// appends divert the data file into an overflow file and land, as a
// mirror's do (both of its copies divert); so does one whose data write is abandoned in flight when the
// monitor declares its node dead. Every block reads back; a handle opened
// once the node is back (its blocks synced before it died) finds the gaps,
// reads every block and appends past them; its Rebuild folds the overflows
// in and deletes them, and the file survives m further node failures.
func TestDeadDataNodeDiverts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		p, victim int
		inFlight  bool
		open      func(proc sim.Proc, c *core.Client, create bool) (*stripes, error)
		m         int
	}{
		{"RS(6,2)", 8, 1, false, func(proc sim.Proc, c *core.Client, create bool) (*stripes, error) {
			open := OpenRS
			if create {
				open = CreateRS
			}
			rs, err := open(proc, c, "f", RSOptions{K: 6, M: 2})
			if err != nil {
				return nil, err
			}
			return &rs.stripes, nil
		}, 2},
		{"parity", 5, 2, false, func(proc sim.Proc, c *core.Client, create bool) (*stripes, error) {
			open := OpenParity
			if create {
				open = CreateParity
			}
			pf, err := open(proc, c, "f", 5)
			if err != nil {
				return nil, err
			}
			return &pf.stripes, nil
		}, 1},
		{"mirror", 4, 1, false, func(proc sim.Proc, c *core.Client, create bool) (*stripes, error) {
			if create {
				m, err := CreateMirror(proc, c, "f", 4)
				if err != nil {
					return nil, err
				}
				return &m.stripes, nil
			}
			m, err := OpenMirror(proc, c, "f")
			if err != nil {
				return nil, err
			}
			return &m.stripes, nil
		}, 1},
		{"RS(3,2) in flight", 5, 1, true, func(proc sim.Proc, c *core.Client, create bool) (*stripes, error) {
			open := OpenRS
			if create {
				open = CreateRS
			}
			rs, err := open(proc, c, "f", RSOptions{K: 3, M: 2})
			if err != nil {
				return nil, err
			}
			return &rs.stripes, nil
		}, 2},
	} {
		withRobustCluster(t, tc.p, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
			st, err := tc.open(proc, c, true)
			if err != nil {
				t.Errorf("%s: create: %v", tc.name, err)
				return
			}
			const n = 24
			for i := 0; i < n; i++ {
				if i == n/3 {
					// Synced, the victim comes back with its blocks whole,
					// so a handle can be opened before Rebuild.
					if _, err := c.FlushAll(); err != nil {
						t.Errorf("%s: Flush: %v", tc.name, err)
						return
					}
					if tc.inFlight {
						cl.Net.SetFault(&loseWrite{cl: cl, node: tc.victim})
					} else {
						cl.FailNode(tc.victim)
						detect(proc)
					}
				}
				if err := st.Append(fullPayload(i)); err != nil {
					t.Errorf("%s: Append %d: %v", tc.name, i, err)
					return
				}
			}
			if !st.Degraded() || st.gaps[0].start < 0 {
				t.Errorf("%s: degraded %v, data gap at %d; want the data file diverted", tc.name, st.Degraded(), st.gaps[0].start)
			}
			check := func(when string) bool {
				for i := int64(0); i < st.Blocks(); i++ {
					if data, err := st.Read(i); err != nil || !bytes.Equal(data, fullPayload(int(i))) {
						t.Errorf("%s: %s Read %d: %v", tc.name, when, i, err)
						return false
					}
				}
				return true
			}
			if !check("degraded") {
				return
			}
			cl.RestartNode(tc.victim)
			detect(proc)
			if _, err := c.RepairNode(tc.victim); err != nil {
				t.Errorf("%s: RepairNode: %v", tc.name, err)
				return
			}
			gaps := slices.Clone(st.gaps)
			if st, err = tc.open(proc, c, false); err != nil || !slices.Equal(st.gaps, gaps) || st.Blocks() != n {
				t.Errorf("%s: reopened: %v, gaps %v, %d blocks; want gaps %v, %d blocks", tc.name, err, st.gaps, st.Blocks(), gaps, n)
				return
			}
			if err := st.Append(fullPayload(n)); err != nil || !check("reopened") {
				t.Errorf("%s: Append past the gap from the reopened handle: %v", tc.name, err)
				return
			}
			if _, err := st.Rebuild(); err != nil || st.Degraded() {
				t.Errorf("%s: Rebuild: %v, degraded %v", tc.name, err, st.Degraded())
				return
			}
			names, err := c.List()
			for _, name := range names {
				if strings.HasSuffix(name, ".ovf") {
					t.Errorf("%s: overflow file %s left after Rebuild", tc.name, name)
				}
			}
			if err != nil {
				t.Errorf("%s: List: %v", tc.name, err)
			}
			// Full redundancy is back: m more failures, the victim's
			// neighbours this time, cost nothing.
			for j := 1; j <= tc.m; j++ {
				cl.FailNode((tc.victim + j) % tc.p)
			}
			detect(proc)
			check("post-rebuild")
		})
	}
}

// columnLoss names, for each scheme, a file of five blocks whose block 4
// has its column cell on node index col.
var columnLoss = []struct {
	name string
	p    int
	col  int
	open func(proc sim.Proc, c *core.Client) (*stripes, error)
}{
	{"mirror", 4, 1, func(proc sim.Proc, c *core.Client) (*stripes, error) {
		m, err := CreateMirror(proc, c, "f", 4)
		if err != nil {
			return nil, err
		}
		return &m.stripes, nil
	}},
	{"parity", 4, 3, func(proc sim.Proc, c *core.Client) (*stripes, error) {
		pf, err := CreateParity(proc, c, "f", 4)
		if err != nil {
			return nil, err
		}
		return &pf.stripes, nil
	}},
	{"RS(3,2)", 5, 4, func(proc sim.Proc, c *core.Client) (*stripes, error) {
		rs, err := CreateRS(proc, c, "f", RSOptions{K: 3, M: 2})
		if err != nil {
			return nil, err
		}
		return &rs.stripes, nil
	}},
}

// TestColumnLostInFlightMarksStale: a column write lost in flight, on a
// cluster without a health monitor so that it times out rather than being
// declared dead, leaves its stripe stale for Parity and RS: the append
// returns ErrDegradedWrite, Reconstruct refuses the stripe, and Rebuild
// restores it once the node is back. (A mirror's lost column write fails
// the append instead: TestLostColumnWriteLeavesNoHole.)
func TestColumnLostInFlightMarksStale(t *testing.T) {
	for _, tc := range columnLoss[1:] {
		withCluster(t, tc.p, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
			st, err := tc.open(proc, c)
			if err != nil {
				t.Errorf("%s: create: %v", tc.name, err)
				return
			}
			// Block 4 is the last: the column's node is down after it.
			const n = 5
			for i := 0; i < 4; i++ {
				if err := st.Append(fullPayload(i)); err != nil {
					t.Errorf("%s: Append %d: %v", tc.name, i, err)
					return
				}
			}
			cl.Net.SetFault(&loseWrite{cl: cl, node: tc.col})
			if err := st.Append(fullPayload(4)); !errors.Is(err, ErrDegradedWrite) || st.Blocks() != n {
				t.Errorf("%s: Append with its column write lost = %v, %d blocks; want ErrDegradedWrite, %d", tc.name, err, st.Blocks(), n)
				return
			}
			stripe := int64(4 / st.k)
			if !st.dirty[stripe] {
				t.Errorf("%s: stale stripes %v; want stripe %d", tc.name, st.dirty, stripe)
			}
			if _, err := st.Reconstruct(4); !errors.Is(err, ErrTooManyFailures) {
				t.Errorf("%s: Reconstruct of the stale stripe = %v; want ErrTooManyFailures", tc.name, err)
			}
			cl.RestartNode(tc.col)
			detect(proc)
			if _, err := c.RepairNode(tc.col); err != nil {
				t.Errorf("%s: RepairNode: %v", tc.name, err)
				return
			}
			if _, err := st.Rebuild(); err != nil || st.Degraded() {
				t.Errorf("%s: Rebuild: %v, degraded %v", tc.name, err, st.Degraded())
				return
			}
			for i := int64(0); i < n; i++ {
				if data, err := st.Reconstruct(i); err != nil || !bytes.Equal(data, fullPayload(int(i))) {
					t.Errorf("%s: Reconstruct %d after Rebuild: %v", tc.name, i, err)
					return
				}
			}
		})
	}
}

// TestLostColumnWriteLeavesNoHole: a column write lost while its node stays
// up leaves no hole that later appends cannot write past. A mirror's lost
// copy is the only write its column block gets, so the append fails and
// its retry lands; a Parity or RS append lands degraded, and the stripe's
// next cell rewrites the column block. Either way the next append is one
// scatter that lands with its stripe clean, no Rebuild needed, and every
// column cell is the encoding of the data.
func TestLostColumnWriteLeavesNoHole(t *testing.T) {
	for _, tc := range columnLoss {
		withCluster(t, tc.p, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
			st, err := tc.open(proc, c)
			if err != nil {
				t.Errorf("%s: create: %v", tc.name, err)
				return
			}
			var data [][]byte
			for i := 0; i < 4; i++ {
				data = append(data, fullPayload(i))
				if err := st.Append(data[i]); err != nil {
					t.Errorf("%s: Append %d: %v", tc.name, i, err)
					return
				}
			}
			lose := &loseWrite{cl: cl, node: tc.col, keep: true}
			cl.Net.SetFault(lose)
			err = st.Append(fullPayload(4))
			switch {
			case st.k == 1 && (err == nil || errors.Is(err, ErrDegradedWrite) || st.Blocks() != 4):
				t.Errorf("%s: Append with its copy lost = %v, %d blocks; want a failed append", tc.name, err, st.Blocks())
				return
			case st.k == 1:
				err = st.Append(fullPayload(4))
			case !errors.Is(err, ErrDegradedWrite) || !st.dirty[1]:
				t.Errorf("%s: Append with its column write lost = %v, stale %v; want ErrDegradedWrite, stripe 1", tc.name, err, st.dirty)
				return
			default:
				err = nil
			}
			if data = append(data, fullPayload(4)); err != nil {
				t.Errorf("%s: retried Append: %v", tc.name, err)
				return
			}
			before := lose.scatters
			data = append(data, fullPayload(5))
			if err := st.Append(data[5]); err != nil || lose.scatters-before != 1 {
				t.Errorf("%s: next Append = %v in %d scatters; want nil in one", tc.name, err, lose.scatters-before)
				return
			}
			if st.Degraded() {
				t.Errorf("%s: degraded after a clean append, stale %v", tc.name, st.dirty)
			}
			stripes := len(rmwCells(st.enc, st.k, st.cell, data))
			if got := checkStripes(t, st, data); got != stripes*len(st.cols) {
				t.Errorf("%s: %d column cells readable, want %d", tc.name, got, stripes*len(st.cols))
			}
			for i, want := range data {
				if got, err := st.Reconstruct(int64(i)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: Reconstruct %d: %v", tc.name, i, err)
				}
			}
		})
	}
}
