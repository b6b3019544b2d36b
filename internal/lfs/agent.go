package lfs

import (
	"fmt"
	"time"

	"bridge/internal/msg"
	"bridge/internal/sim"
)

// The node agent is how tools "become part of the file system": a tool
// sends SpawnReq to each storage node's agent and the agent starts the
// tool's worker process locally, so the worker's traffic to the node's LFS
// is all node-local. The agent also implements the embedded-binary-tree
// broadcast the paper suggests for speeding up Create's sequential
// initiation ("Performance could be improved somewhat by sending startup
// and completion messages through an embedded binary tree").

// WorkerFunc is tool code exported to a storage node. In the simulated
// network the function value travels in the message; on a real network this
// corresponds to the paper's exportation of user-level code to LFS nodes.
type WorkerFunc func(p sim.Proc, node msg.NodeID)

// spawnCPU models 1988-era process creation cost on the node.
const spawnCPU = 2 * time.Millisecond

type (
	// SpawnReq asks the agent to start a worker process on its node.
	SpawnReq struct {
		Name string
		Fn   WorkerFunc
	}
	// SpawnResp acknowledges that the worker has been started.
	SpawnResp struct{ msg.Status }

	// TreeReq broadcasts an LFS operation to Targets through an embedded
	// binary tree: the receiving agent is Targets[0]; it forwards the
	// request to the heads of the two halves of Targets[1:], delivers Op
	// to its local LFS, and acknowledges once its subtree completes.
	TreeReq struct {
		Targets []msg.NodeID
		Op      any
		OpSize  int
	}
	// TreeResp reports subtree completion; Status carries the first
	// error encountered in the subtree.
	TreeResp struct{ msg.Status }
)

type agent struct {
	net  *msg.Network
	node msg.NodeID
	port *msg.Port
}

func startAgent(rt sim.Runtime, net *msg.Network, node msg.NodeID) *agent {
	a := &agent{
		net:  net,
		node: node,
		port: net.NewPort(msg.Addr{Node: node, Port: AgentPortName}),
	}
	rt.Go(a.port.Addr().String(), func(p sim.Proc) { a.run(p) })
	return a
}

func (a *agent) run(p sim.Proc) {
	c := msg.NewClient(p, a.net, a.node, AgentPortName+".cli")
	spawned := 0
	for {
		req, ok := a.port.Recv(p)
		if !ok {
			c.Close()
			return
		}
		switch r := req.Body.(type) {
		case SpawnReq:
			p.Sleep(spawnCPU)
			spawned++
			name := fmt.Sprintf("n%d/%s#%d", a.node, r.Name, spawned)
			node := a.node
			p.Go(name, func(wp sim.Proc) { r.Fn(wp, node) })
			_ = c.Reply(req, SpawnResp{}, 8)
		case TreeReq:
			st := a.tree(p, c, r)
			_ = c.Reply(req, TreeResp{Status: st}, 8)
		default:
			_ = c.Reply(req, msg.Failed(CodeIO, "agent: unknown request"), 8)
		}
	}
}

// tree performs the local op and forwards to the two child subtrees,
// overlapping all three.
func (a *agent) tree(p sim.Proc, c *msg.Client, r TreeReq) msg.Status {
	rest := r.Targets
	if len(rest) > 0 && rest[0] == a.node {
		rest = rest[1:]
	}
	var ids []uint64
	mid := (len(rest) + 1) / 2
	for _, half := range [][]msg.NodeID{rest[:mid], rest[mid:]} {
		if len(half) == 0 {
			continue
		}
		id, err := c.Start(msg.Addr{Node: half[0], Port: AgentPortName},
			TreeReq{Targets: half, Op: r.Op, OpSize: r.OpSize}, r.OpSize+16)
		if err != nil {
			return StatusFor(err)
		}
		ids = append(ids, id)
	}
	// Local delivery to this node's LFS.
	localID, err := c.Start(lfsAddr(a.node), r.Op, r.OpSize)
	if err != nil {
		return StatusFor(err)
	}
	// The subtree's first failure, this node's own before its children's.
	st := awaitStatus(c, localID)
	for _, id := range ids {
		if s := awaitStatus(c, id); st.OK() {
			st = s
		}
	}
	return st
}

// awaitStatus collects a started call's outcome: the status its reply
// embeds, whatever the reply's kind, or the failure to get one.
func awaitStatus(c *msg.Client, id uint64) msg.Status {
	m, err := c.Await(id)
	if err != nil {
		return StatusFor(err)
	}
	st, ok := msg.StatusOf(m.Body)
	if !ok {
		return msg.Failed(CodeIO, "agent: unknown reply")
	}
	return st
}

// Spawn asks the agent on node to start a worker; it returns once the
// worker process has been created.
func Spawn(c *msg.Client, node msg.NodeID, name string, fn WorkerFunc) error {
	_, err := reply[SpawnResp](c.Call(msg.Addr{Node: node, Port: AgentPortName}, SpawnReq{Name: name, Fn: fn}, 64))
	return err
}

// SpawnAll starts a worker on every listed node, overlapping the spawns,
// and waits for all acknowledgements. fn receives the node it runs on.
func SpawnAll(c *msg.Client, nodes []msg.NodeID, name string, fn WorkerFunc) error {
	ids := make([]uint64, 0, len(nodes))
	for _, n := range nodes {
		id, err := c.Start(msg.Addr{Node: n, Port: AgentPortName}, SpawnReq{Name: name, Fn: fn}, 64)
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	ms, err := c.Gather(ids)
	if err != nil {
		return err
	}
	for _, m := range ms {
		if _, err := reply[SpawnResp](m, nil); err != nil {
			return err
		}
	}
	return nil
}
