// Tool-mode parallel delete: the controller releases the file's directory
// entry through the Bridge Server, then one worker per node frees the
// node's column locally. Each LFS walks its own chain and clears its own
// bitmap, so the whole delete runs in O(n/p + log p) instead of the
// serial-per-node O(n) the naive path pays.
package tools

import (
	"errors"
	"fmt"

	"bridge/internal/core"
	"bridge/internal/efs"
	"bridge/internal/obs"
	"bridge/internal/sim"
)

// toolMetrics are the toolkit's typed metric handles. Registration is
// idempotent on the network's shared registry, so fetching the set per
// tool run is cheap.
type toolMetrics struct {
	pdelFiles  obs.Counter
	pdelBlocks obs.Counter
	pdelNodes  obs.Counter
}

// RegisterMetrics registers the toolkit's metric descriptions on r without
// touching any values. Normal operation registers them lazily on first
// use; documentation generation calls this to see the full set.
func RegisterMetrics(r *obs.Registry) { toolMetricsOn(r) }

func toolMetricsOn(r *obs.Registry) toolMetrics {
	return toolMetrics{
		pdelFiles:  r.Counter("bridge.pdel_files", "files", "Files removed by the parallel delete tool."),
		pdelBlocks: r.Counter("bridge.pdel_blocks", "blocks", "Blocks freed by parallel delete workers across all nodes."),
		pdelNodes:  r.Counter("bridge.pdel_nodes", "workers", "Per-node delete workers run by the parallel delete tool."),
	}
}

// DeleteStats reports what a parallel delete freed.
type DeleteStats struct {
	// Freed counts the LFS blocks released across all nodes.
	Freed int
}

// Delete removes a file as a Bridge tool. The controller's only server
// interaction is a Release — one RPC that atomically unregisters the name
// and returns the placement — after which every node frees its column
// concurrently. Workers tolerate a missing constituent file (a node that
// never received an append, or a retried delete) so the operation is
// idempotent.
func Delete(pc sim.Proc, c *core.Client, name string) (DeleteStats, error) {
	meta, err := c.Release(name)
	if err != nil {
		return DeleteStats{}, fmt.Errorf("tools: releasing %s: %w", name, err)
	}
	if len(meta.Nodes) == 0 {
		return DeleteStats{}, fmt.Errorf("tools: %s has no nodes", name)
	}
	results, err := RunOnNodes(pc, c.Msg().Net(), meta.Nodes, "edelete", func(ctx *WorkerCtx) (any, error) {
		freed, err := ctx.LFS.Delete(ctx.Node, meta.LFSFileID, meta.LocalBlocks(ctx.Index), true)
		if errors.Is(err, efs.ErrNotFound) {
			return 0, nil
		}
		return freed, err
	})
	if err != nil {
		return DeleteStats{}, err
	}
	total := 0
	for _, r := range results {
		total += r.(int)
	}
	m := toolMetricsOn(c.Msg().Net().Stats().Registry())
	m.pdelFiles.Add(1)
	m.pdelBlocks.Add(int64(total))
	m.pdelNodes.Add(int64(len(meta.Nodes)))
	return DeleteStats{Freed: total}, nil
}
