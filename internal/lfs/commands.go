package lfs

import (
	"errors"

	"bridge/internal/msg"
	"bridge/internal/sim"
)

// The LFS server's protocol and the node agent's are each declared once, in
// a command table below (msg.Table): each entry carries its command's span
// name, prices and handler. The bare status that answers a request neither
// table declares is priced with the server's. Adding a command is declaring
// its two types and one entry.

// defaultSize is what the bandwidth model charges a body no table declares.
const defaultSize = 16

var (
	nodeCommands  *msg.Table[*Node]
	agentCommands *msg.Table[*agent]
)

// WireSize estimates the on-wire payload size of a protocol body, used by
// the network bandwidth model.
func WireSize(body any) int {
	if n, ok := nodeCommands.Price(body); ok {
		return n
	}
	n, _ := agentCommands.Price(body)
	return n
}

// Bodies returns a zero value of every body of the two protocols, in table
// order.
func Bodies() []any { return append(nodeCommands.Bodies(), agentCommands.Bodies()...) }

// deduped runs a write at most once per (caller, OpID): a retransmitted copy
// that already executed gets the cached reply back instead of writing again,
// and a delayed duplicate cannot revert a newer write. The cache is read as
// the handler's own reply type, so an OpID that the other write kind already
// used is a miss and re-executes. A successful reply is cached, under a FIFO
// bound, if keep (when set) says it may be replayed.
func deduped[Req, Resp any](opID func(Req) uint64, keep func(Resp) bool, h handler[Req, Resp]) handler[Req, Resp] {
	return func(n *Node, p sim.Proc, from msg.Addr, r Req) (Resp, error) {
		key := writeKey{from: from, op: opID(r)}
		if key.op != 0 {
			if resp, hit := n.dedup[key].(Resp); hit {
				return resp, nil
			}
		}
		resp, err := h(n, p, from, r)
		if key.op != 0 && err == nil && (keep == nil || keep(resp)) {
			if len(n.dedupQ) >= writeDedupCap {
				delete(n.dedup, n.dedupQ[0])
				n.dedupQ = n.dedupQ[1:]
			}
			n.dedup[key] = resp
			n.dedupQ = append(n.dedupQ, key)
		}
		return resp, err
	}
}

type handler[Req, Resp any] func(n *Node, p sim.Proc, from msg.Addr, r Req) (Resp, error)

// landed reports a vectored write whose every block landed: the only kind
// a retransmission may replay.
func landed(r WriteVecResp) bool {
	for _, b := range r.Blocks {
		if !b.OK() {
			return false
		}
	}
	return true
}

// The tables are built in init because their handlers reach WireSize, which
// reads them.
func init() {
	nodeCommands = msg.NewTable(defaultSize, StatusFor, func(any) error { return errors.New("lfs: unknown request") },
		msg.OneWay[*Node](msg.Flat[msg.Status](8)),
		msg.Cmd(msg.Def[*Node, CreateReq, CreateResp]{Name: "create", ReqSize: msg.Flat[CreateReq](8), RespSize: msg.Flat[CreateResp](8),
			Serve: func(n *Node, p sim.Proc, _ msg.Addr, r CreateReq) (CreateResp, error) {
				return CreateResp{}, n.fs.Create(p, r.FileID)
			}}),
		msg.Cmd(msg.Def[*Node, DeleteReq, DeleteResp]{Name: "delete", ReqSize: msg.Flat[DeleteReq](8), RespSize: msg.Flat[DeleteResp](12),
			Serve: func(n *Node, p sim.Proc, _ msg.Addr, r DeleteReq) (DeleteResp, error) {
				var freed int
				var err error
				if r.Fast {
					freed, err = n.fs.DeleteFast(p, r.FileID)
				} else {
					freed, err = n.fs.Delete(p, r.FileID)
				}
				return DeleteResp{Freed: freed}, err
			}}),
		msg.Cmd(msg.Def[*Node, ReadReq, ReadResp]{Name: "read", ReqSize: msg.Flat[ReadReq](16),
			RespSize: func(b ReadResp) int { return 12 + len(b.Data) },
			Serve: func(n *Node, p sim.Proc, _ msg.Addr, r ReadReq) (ReadResp, error) {
				data, addr, err := n.fs.ReadBlock(p, r.FileID, r.BlockNum, r.Hint)
				return ReadResp{Data: data, Addr: addr}, err
			}}),
		msg.Cmd(msg.Def[*Node, WriteReq, WriteResp]{Name: "write",
			ReqSize: func(b WriteReq) int { return 16 + int(b.Head.Len) + len(b.Data) }, RespSize: msg.Flat[WriteResp](12),
			Serve: deduped(func(r WriteReq) uint64 { return r.OpID }, nil,
				func(n *Node, p sim.Proc, _ msg.Addr, r WriteReq) (WriteResp, error) {
					addr, err := n.fs.WriteBlockHead(p, r.FileID, r.BlockNum, r.Head.Bytes(), r.Data, r.Hint)
					return WriteResp{Addr: addr}, err
				})}),
		msg.Cmd(msg.Def[*Node, ReadVecReq, ReadVecResp]{Name: "readvec", Serve: (*Node).readVec,
			ReqSize: func(b ReadVecReq) int { return 16 + 4*len(b.Blocks) },
			RespSize: func(b ReadVecResp) int {
				n := 8
				for _, v := range b.Blocks {
					n += 8 + len(v.Data)
				}
				return n
			}}),
		msg.Cmd(msg.Def[*Node, WriteVecReq, WriteVecResp]{Name: "writevec",
			ReqSize: func(b WriteVecReq) int {
				n := 24
				for i := range b.Blocks {
					v := &b.Blocks[i]
					n += 8 + int(v.Head.Len) + len(v.Data)
				}
				return n
			},
			RespSize: func(b WriteVecResp) int { return 8 + 8*len(b.Blocks) },
			Serve:    deduped(func(r WriteVecReq) uint64 { return r.OpID }, landed, (*Node).writeVec)}),
		msg.Cmd(msg.Def[*Node, PingReq, PingResp]{Name: "ping", ReqSize: msg.Flat[PingReq](8), RespSize: msg.Flat[PingResp](8),
			Serve: func(*Node, sim.Proc, msg.Addr, PingReq) (PingResp, error) { return PingResp{}, nil }}),
		msg.Cmd(msg.Def[*Node, StatReq, StatResp]{Name: "stat", ReqSize: msg.Flat[StatReq](8), RespSize: msg.Flat[StatResp](24),
			Serve: func(n *Node, p sim.Proc, _ msg.Addr, r StatReq) (StatResp, error) {
				info, err := n.fs.Stat(p, r.FileID)
				return StatResp{Info: info}, err
			}}),
		msg.Cmd(msg.Def[*Node, SyncReq, SyncResp]{Name: "sync", ReqSize: msg.Flat[SyncReq](8), RespSize: msg.Flat[SyncResp](8),
			Serve: func(n *Node, p sim.Proc, _ msg.Addr, _ SyncReq) (SyncResp, error) { return SyncResp{}, n.fs.Sync(p) }}),
		msg.Cmd(msg.Def[*Node, CheckReq, CheckResp]{Name: "check", ReqSize: msg.Flat[CheckReq](8),
			RespSize: func(b CheckResp) int { return 16 + b.Report.TextBytes() },
			Serve: func(n *Node, p sim.Proc, _ msg.Addr, r CheckReq) (resp CheckResp, err error) {
				if r.Repair {
					resp.Report, resp.Fixes, err = n.fs.Repair(p)
				} else {
					resp.Report, err = n.fs.Check(p)
				}
				// The store stays dirty, and its every mount walks, until a
				// check passes.
				n.Disk.HoldDirty(err != nil || !resp.Report.OK())
				return resp, err
			}}),
		msg.Cmd(msg.Def[*Node, ScrubReq, ScrubResp]{Name: "scrub", ReqSize: msg.Flat[ScrubReq](8), Serve: (*Node).scrub,
			RespSize: func(b ScrubResp) int { return 16 + 12*len(b.Report.Errors) }}),
		msg.Cmd(msg.Def[*Node, UsageReq, UsageResp]{Name: "usage", ReqSize: msg.Flat[UsageReq](8), RespSize: msg.Flat[UsageResp](16),
			Serve: func(n *Node, _ sim.Proc, _ msg.Addr, _ UsageReq) (UsageResp, error) {
				return UsageResp{TotalBlocks: n.Disk.Config().NumBlocks, FreeBlocks: n.fs.FreeBlocks()}, nil
			}}),
		msg.Cmd(msg.Def[*Node, RecoveryReq, RecoveryResp]{Name: "recovery", ReqSize: msg.Flat[RecoveryReq](8),
			RespSize: func(b RecoveryResp) int { return 64 + b.Report.Fsck.TextBytes() },
			Serve: func(n *Node, _ sim.Proc, _ msg.Addr, _ RecoveryReq) (RecoveryResp, error) {
				if n.recovery == nil {
					return RecoveryResp{Status: msg.Failed(CodeNotFound,
						"lfs: no recovery report (volume was freshly formatted or is not journaled)")}, nil
				}
				return RecoveryResp{Report: *n.recovery}, nil
			}}),
	)
	agentCommands = msg.NewTable(defaultSize, StatusFor, func(any) error { return errors.New("agent: unknown request") },
		msg.Cmd(msg.Def[*agent, SpawnReq, SpawnResp]{Name: "spawn", ReqSize: msg.Flat[SpawnReq](64), RespSize: msg.Flat[SpawnResp](8),
			Serve: (*agent).spawn}),
		msg.Cmd(msg.Def[*agent, TreeReq, TreeResp]{Name: "tree", ReqSize: func(b TreeReq) int { return b.OpSize + 16 }, RespSize: msg.Flat[TreeResp](8),
			Serve: func(a *agent, _ sim.Proc, _ msg.Addr, r TreeReq) (TreeResp, error) {
				return TreeResp{Status: a.tree(r)}, nil
			}}),
	)
}
