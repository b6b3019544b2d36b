package replica

import (
	"bytes"
	"errors"
	"testing"

	"bridge/internal/core"
	"bridge/internal/sim"
)

// The encoding matrix must be systematic and MDS: identity on top, every
// k-row selection invertible.
func TestRSEncodingMatrixInvertibility(t *testing.T) {
	for _, km := range [][2]int{{2, 1}, {3, 2}, {6, 2}, {4, 4}} {
		k, m := km[0], km[1]
		e := rsEncodingMatrix(k, m)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				want := byte(0)
				if i == j {
					want = 1
				}
				if e[i][j] != want {
					t.Fatalf("RS(%d,%d): row %d not a unit vector", k, m, i)
				}
			}
		}
		// Exhaustively drop every possible set of m rows and invert the rest.
		var check func(start int, dropped []int)
		check = func(start int, dropped []int) {
			if len(dropped) == m {
				drop := make(map[int]bool, m)
				for _, d := range dropped {
					drop[d] = true
				}
				rows := make([][]byte, 0, k)
				for i := 0; i < k+m; i++ {
					if !drop[i] {
						rows = append(rows, e[i])
					}
				}
				if _, err := gfMatInv(rows[:k]); err != nil {
					t.Fatalf("RS(%d,%d): rows minus %v not invertible: %v", k, m, dropped, err)
				}
				return
			}
			for d := start; d < k+m; d++ {
				check(d+1, append(dropped, d))
			}
		}
		check(0, nil)
	}
}

func TestRSRoundTripAndOverhead(t *testing.T) {
	withCluster(t, 8, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		rs, err := CreateRS(proc, c, "f", RSOptions{K: 6, M: 2})
		if err != nil {
			t.Errorf("CreateRS: %v", err)
			return
		}
		const n = 25 // 4 full stripes of 6 plus a partial one
		for i := 0; i < n; i++ {
			if err := rs.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		for i := int64(0); i < n; i++ {
			data, err := rs.Read(i)
			if err != nil || !bytes.Equal(data, fullPayload(int(i))) {
				t.Errorf("Read %d: %v", i, err)
				return
			}
		}
		// Storage: n data blocks plus m·ceil(n/k) parity cells — the
		// ~1.33x overhead of RS(6,2), against Mirror's 2x.
		meta, err := c.Stat("f")
		if err != nil || meta.Blocks != n {
			t.Errorf("data Stat = %+v, %v", meta, err)
			return
		}
		stripes := int64((n + 5) / 6)
		for j := 0; j < 2; j++ {
			pm, err := c.Stat(rsParityName("f", j))
			if err != nil || pm.Blocks != stripes {
				t.Errorf("parity %d Stat = %+v, %v; want %d blocks", j, pm, err, stripes)
				return
			}
		}
		// A reopened handle sees the same content.
		rs2, err := OpenRS(proc, c, "f", RSOptions{K: 6, M: 2})
		if err != nil || rs2.Blocks() != n {
			t.Errorf("OpenRS: blocks=%d err=%v", rs2.Blocks(), err)
			return
		}
		if data, err := rs2.Read(7); err != nil || !bytes.Equal(data, fullPayload(7)) {
			t.Errorf("reopened Read: %v", err)
		}
	})
}

// RS(3,2) survives any two simultaneous node losses: data+data,
// data+parity, parity+parity.
func TestRSSurvivesAnyTwoErasures(t *testing.T) {
	const n = 11
	for _, loss := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {3, 4}} {
		loss := loss
		withCluster(t, 5, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
			rs, err := CreateRS(proc, c, "f", RSOptions{K: 3, M: 2})
			if err != nil {
				t.Errorf("CreateRS: %v", err)
				return
			}
			for i := 0; i < n; i++ {
				if err := rs.Append(fullPayload(i)); err != nil {
					t.Errorf("Append %d: %v", i, err)
					return
				}
			}
			cl.FailNode(loss[0])
			cl.FailNode(loss[1])
			for i := int64(0); i < n; i++ {
				data, err := rs.Read(i)
				if err != nil || !bytes.Equal(data, fullPayload(int(i))) {
					t.Errorf("loss %v: Read %d: %v", loss, i, err)
					return
				}
			}
		})
	}
}

// Three losses exceed m=2 and must fail with the typed error, not wrong
// data.
func TestRSThreeErasuresFail(t *testing.T) {
	withCluster(t, 5, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		rs, err := CreateRS(proc, c, "f", RSOptions{K: 3, M: 2})
		if err != nil {
			t.Errorf("CreateRS: %v", err)
			return
		}
		for i := 0; i < 6; i++ {
			if err := rs.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		cl.FailNode(0)
		cl.FailNode(1)
		cl.FailNode(3)
		if _, err := rs.Read(0); !errors.Is(err, ErrTooManyFailures) {
			t.Errorf("Read with 3 losses = %v; want ErrTooManyFailures", err)
		}
	})
}

// An append with a parity node down diverts that column's cell to an
// overflow file, so the stripe keeps every cell; Rebuild folds the overflow
// back after the node returns.
func TestRSDegradedWriteThenRebuild(t *testing.T) {
	withRobustCluster(t, 5, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		rs, err := CreateRS(proc, c, "f", RSOptions{K: 3, M: 2})
		if err != nil {
			t.Errorf("CreateRS: %v", err)
			return
		}
		for i := 0; i < 6; i++ {
			if err := rs.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		// Parity node rs1 (cluster index 4) dies; appends divert and land.
		cl.FailNode(4)
		detect(proc)
		for i := 6; i < 9; i++ {
			if err := rs.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d with parity node dead = %v; want nil", i, err)
				return
			}
		}
		if !rs.Degraded() {
			t.Error("file not marked degraded")
			return
		}
		// All data still reads (directly — the data nodes are healthy), and
		// the stripe written degraded still decodes from its cells.
		for i := int64(0); i < 9; i++ {
			if data, err := rs.Read(i); err != nil || !bytes.Equal(data, fullPayload(int(i))) {
				t.Errorf("degraded Read %d: %v", i, err)
				return
			}
		}
		for i := int64(6); i < 9; i++ {
			if data, err := rs.Reconstruct(i); err != nil || !bytes.Equal(data, fullPayload(int(i))) {
				t.Errorf("Reconstruct %d of the diverted stripe: %v", i, err)
				return
			}
		}
		cl.RestartNode(4)
		detect(proc)
		if _, err := c.RepairNode(4); err != nil {
			t.Errorf("RepairNode: %v", err)
			return
		}
		rebuilt, err := rs.Rebuild()
		if err != nil {
			t.Errorf("Rebuild: %v", err)
			return
		}
		if rebuilt == 0 || rs.Degraded() {
			t.Errorf("Rebuild wrote %d cells, degraded=%v", rebuilt, rs.Degraded())
			return
		}
		// Full redundancy is back: any two losses are survivable again.
		cl.FailNode(0)
		cl.FailNode(3)
		detect(proc)
		for i := int64(0); i < 9; i++ {
			data, err := rs.Read(i)
			if err != nil || !bytes.Equal(data, fullPayload(int(i))) {
				t.Errorf("post-rebuild Read %d: %v", i, err)
				return
			}
		}
	})
}

// Silent bitrot on a data cell is detected by the checksum, served from
// reconstruction, and repaired in place.
func TestRSBitrotReadRepair(t *testing.T) {
	withCluster(t, 5, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		rs, err := CreateRS(proc, c, "f", RSOptions{K: 3, M: 2})
		if err != nil {
			t.Errorf("CreateRS: %v", err)
			return
		}
		for i := 0; i < 6; i++ {
			if err := rs.Append(fullPayload(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
				return
			}
		}
		// Rot data block 4 on the medium: global block 4 is data node 1's
		// second arrival (node 1 holds blocks 1, 4, ...).
		node := cl.Nodes[1]
		phys := node.FS().DataStart() + 1
		raw, err := node.Disk.ReadBlock(proc, phys)
		if err != nil {
			t.Errorf("raw read: %v", err)
			return
		}
		raw[100] ^= 0x10
		if err := node.Disk.WriteBlock(proc, phys, raw); err != nil {
			t.Errorf("raw write: %v", err)
			return
		}
		// Scrub confirms the corruption and drops the cached clean copy.
		if rep, err := c.Scrub(1); err != nil || len(rep.Errors) != 1 {
			t.Errorf("Scrub = %+v, %v; want 1 error", rep, err)
			return
		}
		data, err := rs.Read(4)
		if err != nil || !bytes.Equal(data, fullPayload(4)) {
			t.Errorf("Read of rotten block: %v", err)
			return
		}
		// Read-repair rewrote it: a direct read is clean again.
		direct, err := c.ReadAt("f", 4)
		if err != nil || !bytes.Equal(direct, fullPayload(4)) {
			t.Errorf("direct read after repair: %v", err)
		}
	})
}
