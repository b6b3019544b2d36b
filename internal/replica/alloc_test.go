//go:build !race

package replica

import (
	"testing"

	"bridge/internal/core"
	"bridge/internal/sim"
)

// TestAllocsStripes guards what the one stripe mechanism costs on the host,
// counted over the whole simulated system (client, server and nodes), on
// eight nodes with health monitoring. A k = 1 append (a mirror's) may cost
// one object over the bare two-item write scatter it sends, for its item
// slice; an RS(6,2) append one over its three-item scatter, for its cell
// buffer (the parity cells are computed into a spare the handle keeps). A
// k = 1 fallback read — the primary's ReadAt, then a one-item scatter read
// of the copy, which needs no decode matrix — may cost two objects over two
// ReadAts, for the item slice and the per-item results. The file is left
// out under the race detector, whose instrumentation allocates.
func TestAllocsStripes(t *testing.T) {
	withRobustCluster(t, 8, func(proc sim.Proc, cl *core.Cluster, c *core.Client) {
		m, err := CreateMirror(proc, c, "m", 8)
		if err != nil {
			t.Errorf("CreateMirror: %v", err)
			return
		}
		rs, err := CreateRS(proc, c, "r", RSOptions{K: 6, M: 2})
		if err != nil {
			t.Errorf("CreateRS: %v", err)
			return
		}
		for _, name := range []string{"x", "y", "z"} {
			if _, err := c.Create(name); err != nil {
				t.Errorf("Create: %v", err)
				return
			}
		}
		payload := fullPayload(1)
		scatter := func(names ...string) float64 {
			items := make([]core.ScatterItem, len(names))
			for i, name := range names {
				items[i] = core.ScatterItem{Name: name, Write: true, Data: payload}
			}
			var n int64
			return testing.AllocsPerRun(200, func() {
				for i := range items {
					items[i].BlockNum = n
				}
				n++
				if _, err := c.Scatter(items); err != nil {
					t.Errorf("Scatter: %v", err)
				}
			})
		}
		two, three := scatter("x", "y"), scatter("x", "y", "z")
		appendK1 := testing.AllocsPerRun(200, func() {
			if err := m.Append(payload); err != nil {
				t.Errorf("mirror Append: %v", err)
			}
		})
		appendRS := testing.AllocsPerRun(200, func() {
			if err := rs.Append(payload); err != nil {
				t.Errorf("RS Append: %v", err)
			}
		})
		// Block 2's primary copy lives on node 2, its shadow on node 3.
		cl.FailNode(2)
		detect(proc)
		fallback := testing.AllocsPerRun(200, func() {
			if _, err := m.Read(2); err != nil {
				t.Errorf("mirror Read: %v", err)
			}
		})
		readAts := testing.AllocsPerRun(200, func() {
			c.ReadAt("m", 2)
			c.ReadAt(shadowName("m"), 2)
		})
		t.Logf("k=1 append %v (2-item scatter %v), RS(6,2) append %v (3-item scatter %v), k=1 fallback read %v (two ReadAts %v)",
			appendK1, two, appendRS, three, fallback, readAts)
		if appendK1 > two+1 {
			t.Errorf("a k = 1 append allocates %v objects, over the 2-item scatter's %v + 1", appendK1, two)
		}
		if appendRS > three+1 {
			t.Errorf("an RS(6,2) append allocates %v objects, over the 3-item scatter's %v + 1", appendRS, three)
		}
		if fallback > readAts+2 {
			t.Errorf("a k = 1 fallback read allocates %v objects, over two ReadAts' %v + 2", fallback, readAts)
		}
	})
}
