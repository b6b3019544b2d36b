package replica

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/lfs"
	"bridge/internal/sim"
)

func withCluster(t *testing.T, p int, fn func(proc sim.Proc, cl *core.Cluster, c *core.Client)) {
	t.Helper()
	rt := sim.NewVirtual()
	cl, err := core.StartCluster(rt, core.ClusterConfig{
		P:      p,
		Node:   lfs.Config{DiskBlocks: 2048, Timing: disk.FixedTiming{}},
		Server: core.Config{LFSTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	rt.Go("replica-test", func(proc sim.Proc) {
		defer cl.Stop()
		c := cl.NewClient(proc, 0, "replica-cli")
		defer c.Close()
		fn(proc, cl, c)
	})
	if err := rt.Wait(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func fullPayload(i int) []byte {
	b := make([]byte, core.PayloadBytes)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

func TestUnprotectedFileRuinedByFailure(t *testing.T) {
	// The paper's premise: without replication, one failure ruins the
	// interleaved file.
	withCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		c.Create("f")
		for i := 0; i < 8; i++ {
			c.SeqWrite("f", fullPayload(i))
		}
		cl.FailNode(2)
		if _, err := c.ReadAt("f", 2); err == nil {
			t.Error("read of block on failed node succeeded")
		}
	})
}

func TestMirrorSurvivesSingleFailure(t *testing.T) {
	withCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		m, err := CreateMirror(proc, c, "f", 4)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		const n = 12
		for i := 0; i < n; i++ {
			if err := m.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		cl.FailNode(1) // primary copy of blocks 1,5,9; shadow of 0,4,8
		for i := int64(0); i < n; i++ {
			data, err := m.Read(i)
			if err != nil {
				t.Errorf("Read %d after failure: %v", i, err)
				return
			}
			if !bytes.Equal(data, fullPayload(int(i))) {
				t.Errorf("block %d corrupt after failover", i)
			}
		}
	})
}

func TestMirrorDoubleFailureLoses(t *testing.T) {
	withCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		m, err := CreateMirror(proc, c, "f", 4)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		for i := 0; i < 8; i++ {
			m.Append(fullPayload(i))
		}
		// Block 1: primary on node index 1, shadow on node index 2.
		cl.FailNode(1)
		cl.FailNode(2)
		if _, err := m.Read(1); !errors.Is(err, ErrBothCopiesLost) {
			t.Errorf("double failure read = %v, want ErrBothCopiesLost", err)
		}
	})
}

func TestOpenMirror(t *testing.T) {
	withCluster(t, 3, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		m, err := CreateMirror(proc, c, "f", 3)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		m.Append(fullPayload(0))
		m2, err := OpenMirror(proc, c, "f")
		if err != nil {
			t.Errorf("OpenMirror: %v", err)
			return
		}
		data, err := m2.Read(0)
		if err != nil || !bytes.Equal(data, fullPayload(0)) {
			t.Errorf("reopened mirror read: %v", err)
		}
	})
}

func TestParityReconstruction(t *testing.T) {
	withCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		pf, err := CreateParity(proc, c, "f", 4)
		if err != nil {
			t.Errorf("CreateParity: %v", err)
			return
		}
		const n = 11 // spans several stripes of width 3, last partial
		for i := 0; i < n; i++ {
			if err := pf.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		// Reconstruct every block while healthy: must equal original.
		for i := int64(0); i < n; i++ {
			rec, err := pf.Reconstruct(i)
			if err != nil {
				t.Errorf("Reconstruct %d: %v", i, err)
				return
			}
			if !bytes.Equal(rec, fullPayload(int(i))) {
				t.Errorf("reconstructed block %d differs", i)
				return
			}
		}
		// Fail a data node; Read falls back to reconstruction.
		cl.FailNode(1) // holds data blocks with n%3==1
		for i := int64(0); i < n; i++ {
			data, err := pf.Read(i)
			if err != nil {
				t.Errorf("Read %d degraded: %v", i, err)
				return
			}
			if !bytes.Equal(data, fullPayload(int(i))) {
				t.Errorf("degraded block %d corrupt", i)
				return
			}
		}
	})
}

func TestParityDoubleFailureDetected(t *testing.T) {
	withCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		pf, err := CreateParity(proc, c, "f", 4)
		if err != nil {
			t.Errorf("CreateParity: %v", err)
			return
		}
		for i := 0; i < 6; i++ {
			pf.Append(fullPayload(i))
		}
		cl.FailNode(0)
		cl.FailNode(1)
		if _, err := pf.Read(0); !errors.Is(err, ErrTooManyFailures) {
			t.Errorf("double failure = %v, want ErrTooManyFailures", err)
		}
	})
}

func TestParityRejectsShortPayload(t *testing.T) {
	withCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		pf, err := CreateParity(proc, c, "f", 4)
		if err != nil {
			t.Errorf("CreateParity: %v", err)
			return
		}
		if err := pf.Append([]byte("short")); err == nil {
			t.Error("short payload accepted")
		}
	})
}

// TestOneCellStripeTakesShortPayloads: a one-cell stripe — a mirror, or RS
// with K = 1 — stores each payload at its own length, up to a block, and a
// fallback read returns it at that length; RS with K > 1 takes only full
// cells.
func TestOneCellStripeTakesShortPayloads(t *testing.T) {
	withCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		m, err := CreateMirror(proc, c, "m", 4)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		rs1, err := CreateRS(proc, c, "r1", RSOptions{K: 1, M: 2})
		if err != nil {
			t.Errorf("CreateRS(1,2): %v", err)
			return
		}
		rs2, err := CreateRS(proc, c, "r2", RSOptions{K: 2, M: 1})
		if err != nil {
			t.Errorf("CreateRS(2,1): %v", err)
			return
		}
		if err := rs2.Append([]byte("short")); err == nil {
			t.Error("RS(2,1) accepted a short payload")
		}
		short := func(i int) []byte { return fullPayload(i)[:100+i] }
		for _, st := range []*stripes{&m.stripes, &rs1.stripes} {
			for i := 0; i < 4; i++ {
				if err := st.Append(short(i)); err != nil {
					t.Errorf("%s: Append %d: %v", st.what, i, err)
					return
				}
			}
			if err := st.Append(make([]byte, core.PayloadBytes+1)); err == nil {
				t.Errorf("%s: accepted a payload longer than a block", st.what)
			}
		}
		// Node 0 holds the mirror's block 0 and every RS(1,2) data block.
		cl.FailNode(0)
		for _, st := range []*stripes{&m.stripes, &rs1.stripes} {
			for i := 0; i < 4; i++ {
				if got, err := st.Read(int64(i)); err != nil || !bytes.Equal(got, short(i)) {
					t.Errorf("%s: Read %d = %d bytes, %v; want %d", st.what, i, len(got), err, len(short(i)))
				}
			}
		}
	})
}

func TestStorageOverhead(t *testing.T) {
	// Mirror doubles storage; parity costs p/(p-1).
	withCluster(t, 4, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		used := func() int {
			total := 0
			for _, n := range cl.Nodes {
				total += n.FS().Disk().Config().NumBlocks - n.FS().FreeBlocks()
			}
			return total
		}
		base := used()
		m, _ := CreateMirror(proc, c, "m", 4)
		const n = 12
		for i := 0; i < n; i++ {
			m.Append(fullPayload(i))
		}
		mirrorCost := used() - base
		if mirrorCost != 2*n {
			t.Errorf("mirror stored %d blocks for %d records, want %d", mirrorCost, n, 2*n)
		}
		base = used()
		pf, _ := CreateParity(proc, c, "p", 4)
		for i := 0; i < n; i++ {
			pf.Append(fullPayload(i))
		}
		parityCost := used() - base
		if parityCost != n+n/3 {
			t.Errorf("parity stored %d blocks for %d records, want %d", parityCost, n, n+n/3)
		}
	})
}

// TestReadPastEndIsEOF: a block outside [0, Blocks()) is an ErrEOF for
// every scheme, answered before any request is sent.
func TestReadPastEndIsEOF(t *testing.T) {
	withCluster(t, 8, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		m, err := CreateMirror(proc, c, "m", 8)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		pf, err := CreateParity(proc, c, "p", 8)
		if err != nil {
			t.Errorf("CreateParity: %v", err)
			return
		}
		rs, err := CreateRS(proc, c, "r", RSOptions{K: 6, M: 2})
		if err != nil {
			t.Errorf("CreateRS: %v", err)
			return
		}
		for _, tc := range []struct {
			name string
			st   *stripes
		}{{"mirror", &m.stripes}, {"parity", &pf.stripes}, {"RS", &rs.stripes}} {
			for i := 0; i < 4; i++ {
				if err := tc.st.Append(fullPayload(i)); err != nil {
					t.Errorf("%s Append %d: %v", tc.name, i, err)
					return
				}
			}
			for _, n := range []int64{-1, 4, 5} {
				start := proc.Now()
				_, rerr := tc.st.Read(n)
				_, cerr := tc.st.Reconstruct(n)
				if !errors.Is(rerr, core.ErrEOF) || !errors.Is(cerr, core.ErrEOF) {
					t.Errorf("%s block %d of 4: Read %v, Reconstruct %v; want ErrEOF", tc.name, n, rerr, cerr)
				}
				if d := proc.Now() - start; d != 0 {
					t.Errorf("%s block %d of 4 took %v; want no request sent", tc.name, n, d)
				}
			}
		}
	})
}
