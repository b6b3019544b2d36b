package core

import (
	"testing"

	"bridge/internal/distrib"
	"bridge/internal/msg"
)

// TestSplitRange checks the scatter plan against the layout block by block
// for every placement kind: runs in node-index order, only nodes that hold
// a block, globals ascending, locals matching. The runs share one backing
// array, so it also checks that growing one run cannot reach its neighbour.
func TestSplitRange(t *testing.T) {
	const nodes = 5
	for _, spec := range []distrib.Spec{
		{Kind: distrib.RoundRobin, P: nodes, Start: 3},
		{Kind: distrib.Chunked, P: nodes, TotalBlocks: 64},
		{Kind: distrib.Hashed, P: nodes, Seed: 42},
	} {
		ent := &dirent{meta: Meta{Spec: spec}}
		for i := 0; i < nodes; i++ {
			ent.meta.Nodes = append(ent.meta.Nodes, msg.NodeID(10+i))
		}
		l, err := ent.layout()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{0, 1}, {7, 3}, {5, 40}} {
			start, count := int64(r[0]), r[1]
			runs := splitRange(ent, l, start, count)
			seen, lastIdx := 0, -1
			for _, run := range runs {
				if run.nodeIdx <= lastIdx || run.node != ent.meta.Nodes[run.nodeIdx] || len(run.locals) == 0 || len(run.locals) != len(run.globals) {
					t.Fatalf("%v [%d,+%d): malformed run %+v after node index %d", spec.Kind, start, count, run, lastIdx)
				}
				lastIdx = run.nodeIdx
				for j, g := range run.globals {
					if j > 0 && g <= run.globals[j-1] {
						t.Errorf("%v: run for node %d not ascending: %v", spec.Kind, run.nodeIdx, run.globals)
					}
					if g < start || g >= start+int64(count) || l.NodeFor(g) != run.nodeIdx || uint32(l.LocalFor(g)) != run.locals[j] {
						t.Errorf("%v: block %d misplaced in run for node %d (local %d)", spec.Kind, g, run.nodeIdx, run.locals[j])
					}
				}
				seen += len(run.globals)
			}
			if seen != count {
				t.Errorf("%v [%d,+%d): runs cover %d blocks", spec.Kind, start, count, seen)
			}
			if len(runs) > 1 {
				before := runs[1].locals[0]
				_ = append(runs[0].locals, ^uint32(0))
				if runs[1].locals[0] != before {
					t.Errorf("%v: appending to one run overwrote the next", spec.Kind)
				}
			}
		}
	}
}
