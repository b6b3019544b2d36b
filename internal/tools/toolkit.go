// Package tools implements Bridge tools: applications that become part of
// the file system. A tool talks to the Bridge Server only to create, open,
// and locate files; it then spawns worker processes on the LFS nodes (via
// each node's agent) and moves all data traffic node-locally — "exporting
// the I/O-related portions of an application into the processors closest to
// the data".
//
// The standard tools from the paper are provided: copy (and one-to-one
// filters built on it: character translation, XOR encryption, rot13), a
// sequential-search grep, a summary tool (wc), and the parallel external
// merge sort with the token-passing merge of Figure 4.
package tools

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bridge/internal/core"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// toolSeq disambiguates port names when one controller runs several tools.
var toolSeq atomic.Uint64

// WorkerCtx is handed to exported worker code running on a storage node.
type WorkerCtx struct {
	Proc sim.Proc
	Net  *msg.Network
	// Node is the storage node this worker runs on.
	Node msg.NodeID
	// Index is the node's position in the file's interleaving order.
	Index int
	// LFS is a client homed on this node: all its traffic to the local
	// server is node-local.
	LFS *lfs.Client
}

// WorkerFn is the tool code exported to each node. Its return value is
// delivered back to the controller.
type WorkerFn func(ctx *WorkerCtx) (any, error)

// workerDone is the completion message workers send to the controller. A
// worker talks to its own LFS, so its failures are made of the LFS
// protocol's classes and its status is built with that table.
type workerDone struct {
	Index  int
	Result any
	msg.Status
}

// err rebuilds the worker's failure with its class; one that has none stays
// an opaque error with its text.
func (d workerDone) err() error {
	if d.Code() == lfs.CodeIO {
		return errors.New(d.Detail())
	}
	return lfs.Err(d.Status)
}

// RunOnNodes exports fn to every listed node, runs the workers in parallel,
// and gathers their results in node order: the paper's typical tool
// interaction — "(1) a brief phase of communication with the Bridge Server
// ... (2) the creation of subprocesses on all the LFS nodes, and (3) a
// lengthy series of interactions between the subprocesses and the instances
// of LFS", followed by an O(log p)-cheap completion wave. Every call a worker
// makes is bounded (lfs.Client), so the wait for completions needs no bound.
func RunOnNodes(pc sim.Proc, network *msg.Network, nodes []msg.NodeID, name string, fn WorkerFn) ([]any, error) {
	seq := toolSeq.Add(1)
	ctrl := lfs.NewClient(pc, network, 0, fmt.Sprintf("tool.%s.%d.ctl", name, seq))
	defer ctrl.C.Close()
	donePort := network.NewPort(msg.Addr{Node: 0, Port: fmt.Sprintf("tool.%s.%d.done", name, seq)})
	defer donePort.Close()
	doneAddr := donePort.Addr()

	// Start all the spawns before waiting for any acknowledgement, like
	// the server's Create: initiation is sequential, execution overlaps.
	spawns := make([]lfs.Call, 0, len(nodes))
	for i, node := range nodes {
		i := i
		worker := func(p sim.Proc, self msg.NodeID) {
			ctx := &WorkerCtx{
				Proc:  p,
				Net:   network,
				Node:  self,
				Index: i,
				LFS:   lfs.NewClient(p, network, self, fmt.Sprintf("%s.%d.lfs%d", name, seq, i)),
			}
			defer ctx.LFS.C.Close()
			result, err := fn(ctx)
			d := workerDone{Index: i, Result: result, Status: lfs.StatusFor(err)}
			_ = network.Send(p, self, doneAddr, &msg.Message{From: ctx.LFS.C.Addr(), Body: d, Size: 64})
		}
		req := lfs.SpawnReq{Name: fmt.Sprintf("%s.w%d", name, i), Fn: worker}
		call, err := ctrl.Start(msg.Addr{Node: node, Port: lfs.AgentPortName}, req)
		if err != nil {
			return nil, fmt.Errorf("tools: spawning worker on node %d: %w", node, err)
		}
		spawns = append(spawns, call)
	}
	// A dead node's agent drops the spawn; the workers started report to a closed port.
	for _, call := range spawns {
		if _, err := ctrl.Await(call); err != nil {
			return nil, fmt.Errorf("tools: spawn acknowledgement from node %d: %w", call.Node, err)
		}
	}

	results := make([]any, len(nodes))
	var firstErr error
	for range nodes {
		m, ok := donePort.Recv(pc)
		if !ok {
			return nil, fmt.Errorf("tools: completion port closed")
		}
		d := m.Body.(workerDone)
		results[d.Index] = d.Result
		if err := d.err(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tools: worker %d: %w", d.Index, err)
		}
	}
	return results, firstErr
}

// openMeta opens a file through the Bridge Server and validates that the
// tool can address it (tools need the interleaved structure).
func openMeta(c *core.Client, name string) (core.Meta, error) {
	meta, err := c.Open(name)
	if err != nil {
		return core.Meta{}, fmt.Errorf("tools: opening %s: %w", name, err)
	}
	if len(meta.Nodes) == 0 {
		return core.Meta{}, fmt.Errorf("tools: %s has no nodes", name)
	}
	return meta, nil
}

// refreshSize re-opens a file whose blocks the tool's workers wrote behind
// the Bridge Server's back, so the server's size catches up and naive
// access to it works immediately — and checks that it did. Only a directory
// group of one asks the storage nodes for a file's size on Open; a
// replicated group trusts its log, never saw these writes, and would go on
// serving the file as empty, so that case fails here as a bad argument. On
// a group of one a mismatch means the storage nodes hold other than what
// the workers wrote.
func refreshSize(c *core.Client, name string, wrote int64) error {
	meta, err := c.Open(name)
	if err != nil {
		return fmt.Errorf("tools: refreshing %s: %w", name, err)
	}
	switch {
	case meta.Blocks == wrote:
		return nil
	case c.Replicated():
		return fmt.Errorf("%w: tools: the workers wrote %d blocks of %s but the server reports %d: "+
			"tool writes need a directory group of one (Replicas <= 1), a replicated group does not see writes made behind its log",
			core.ErrBadArg, wrote, name, meta.Blocks)
	default:
		return fmt.Errorf("%w: tools: the workers wrote %d blocks of %s but its storage nodes hold %d",
			core.ErrLFSFailed, wrote, name, meta.Blocks)
	}
}
