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

// SpawnCPU models 1988-era process creation cost on the node.
const SpawnCPU = 2 * time.Millisecond

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
	// to its local LFS, and acknowledges once its subtree completes. Op is
	// a body of the LFS server's table, so a codec that carries a TreeReq
	// is built from both tables (wire.NewCodec(Bodies())), not from the
	// agent's alone.
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
	net     *msg.Network
	node    msg.NodeID
	port    *msg.Port
	c       *Client // the agent process's own calls
	spawned int
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
	a.c = NewClient(p, a.net, a.node, AgentPortName+".cli")
	for {
		req, ok := a.port.Recv(p)
		if !ok {
			a.c.C.Close()
			return
		}
		c := agentCommands.Of(req.Body)
		body := c.Serve(a, p, req.From, req.Body)
		_ = a.c.C.Reply(req, body, c.Size(body))
	}
}

// spawn starts a tool worker on the agent's node.
func (a *agent) spawn(p sim.Proc, _ msg.Addr, r SpawnReq) (SpawnResp, error) {
	p.Sleep(SpawnCPU)
	a.spawned++
	name := fmt.Sprintf("n%d/%s#%d", a.node, r.Name, a.spawned)
	node := a.node
	p.Go(name, func(wp sim.Proc) { r.Fn(wp, node) })
	return SpawnResp{}, nil
}

// tree performs the local op and forwards to the two child subtrees,
// overlapping all three. A dead node in the subtree fails it with CodeTimeout.
func (a *agent) tree(r TreeReq) msg.Status {
	c := a.c
	rest := r.Targets
	if len(rest) > 0 && rest[0] == a.node {
		rest = rest[1:]
	}
	var calls []Call
	mid := (len(rest) + 1) / 2
	for _, half := range [][]msg.NodeID{rest[:mid], rest[mid:]} {
		if len(half) == 0 {
			continue
		}
		sub := TreeReq{Targets: half, Op: r.Op, OpSize: r.OpSize}
		call, err := c.Start(msg.Addr{Node: half[0], Port: AgentPortName}, sub)
		if err != nil {
			return StatusFor(err)
		}
		calls = append(calls, call)
	}
	// Local delivery to this node's LFS.
	local, err := c.Start(lfsAddr(a.node), r.Op)
	if err != nil {
		return StatusFor(err)
	}
	// The subtree's first failure, this node's own before its children's.
	st := awaitStatus(c, local)
	for _, call := range calls {
		if s := awaitStatus(c, call); st.OK() {
			st = s
		}
	}
	return st
}

// awaitStatus collects a started call's outcome: the status its reply
// embeds, whatever the reply's kind, or the failure to get one.
func awaitStatus(c *Client, call Call) msg.Status {
	m, err := c.Await(call)
	if err != nil {
		return StatusFor(err)
	}
	if st, ok := msg.StatusOf(m.Body); ok {
		return st
	}
	return msg.Failed(CodeIO, "agent: unknown reply")
}
