package core

import (
	"fmt"

	"bridge/internal/msg"
	"bridge/internal/sim"
)

// The Bridge Server's protocol — Table 1 of the paper and this
// implementation's extensions — is declared once, in the command table
// below (msg.Table): each entry carries its command's span name, prices, the
// name a client routes it by, the operation id a retransmission is
// recognised by, and its handler. Adding a command is declaring its two types
// in protocol.go and one entry here.

// defaultSize is what the bandwidth model charges a body whose entry sets no
// price, and a body the table does not declare.
const defaultSize = 24

var commands *msg.Table[*Server]

// command is an entry of the table.
type command = msg.Command[*Server]

// WireSize estimates on-wire payload sizes for the bandwidth model.
func WireSize(body any) int {
	n, _ := commands.Price(body)
	return n
}

// Bodies returns a zero value of every body of the protocol: requests and
// replies in table order, then the job one-ways.
func Bodies() []any { return commands.Bodies() }

// oneWayMsg is a job one-way from the given port, priced by the table.
func oneWayMsg(from msg.Addr, body any) *msg.Message {
	return &msg.Message{From: from, Body: body, Size: WireSize(body)}
}

// blocks prices a vector of payloads: 8 bytes of framing each.
func blocks(bs [][]byte) int {
	n := 0
	for _, b := range bs {
		n += 8 + len(b)
	}
	return n
}

// The table is built in init because its handlers reach WireSize, which
// reads it.
func init() {
	commands = msg.NewTable(defaultSize, statusFor, func(req any) error { return fmt.Errorf("%w: unknown request %T", ErrBadArg, req) },
		msg.Cmd(msg.Def[*Server, CreateReq, CreateResp]{Name: "create", Serve: (*Server).create,
			ReqSize: func(b CreateReq) int { return 40 + len(b.Name) }, RespSize: msg.Flat[CreateResp](64),
			Route: func(r CreateReq) (string, bool) { return r.Name, true }, OpID: func(r CreateReq) uint64 { return r.OpID }}),
		msg.Cmd(msg.Def[*Server, DeleteReq, DeleteResp]{Name: "delete",
			Route: func(r DeleteReq) (string, bool) { return r.Name, true }, OpID: func(r DeleteReq) uint64 { return r.OpID },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r DeleteReq) (DeleteResp, error) {
				_, freed, err := s.remove(p, from, r.Name, r.OpID, ropDelete)
				return DeleteResp{Freed: freed}, err
			}}),
		msg.Cmd(msg.Def[*Server, RenameReq, RenameResp]{Name: "rename", Serve: (*Server).rename,
			ReqSize: func(b RenameReq) int { return 24 + len(b.Name) + len(b.NewName) }, RespSize: msg.Flat[RenameResp](64),
			Route: func(r RenameReq) (string, bool) { return r.Name, true }, OpID: func(r RenameReq) uint64 { return r.OpID }}),
		msg.Cmd(msg.Def[*Server, OpenReq, OpenResp]{Name: "open",
			ReqSize: func(b OpenReq) int { return 8 + len(b.Name) }, RespSize: msg.Flat[OpenResp](64),
			Route: func(r OpenReq) (string, bool) { return r.Name, true },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r OpenReq) (OpenResp, error) {
				meta, err := s.open(p, from, r.Name, true)
				return OpenResp{Meta: meta}, err
			}}),
		msg.Cmd(msg.Def[*Server, StatReq, StatResp]{Name: "stat", RespSize: msg.Flat[StatResp](64),
			Route: func(r StatReq) (string, bool) { return r.Name, true },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r StatReq) (StatResp, error) {
				meta, err := s.open(p, from, r.Name, false)
				return StatResp{Meta: meta}, err
			}}),
		msg.Cmd(msg.Def[*Server, FlushReq, FlushResp]{Name: "flush", Serve: (*Server).flush,
			ReqSize: func(b FlushReq) int { return 16 + len(b.Name) }, OpID: func(r FlushReq) uint64 { return r.OpID }}),
		msg.Cmd(msg.Def[*Server, ReleaseReq, ReleaseResp]{Name: "release",
			ReqSize: func(b ReleaseReq) int { return 16 + len(b.Name) }, RespSize: msg.Flat[ReleaseResp](64),
			Route: func(r ReleaseReq) (string, bool) { return r.Name, true }, OpID: func(r ReleaseReq) uint64 { return r.OpID },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r ReleaseReq) (ReleaseResp, error) {
				meta, _, err := s.remove(p, from, r.Name, r.OpID, ropRelease)
				return ReleaseResp{Meta: meta}, err
			}}),
		msg.Cmd(msg.Def[*Server, SeqReadReq, SeqReadResp]{Name: "seqread",
			RespSize: func(b SeqReadResp) int { return 16 + len(b.Data) },
			Route:    func(r SeqReadReq) (string, bool) { return r.Name, true }, OpID: func(r SeqReadReq) uint64 { return r.OpID },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r SeqReadReq) (SeqReadResp, error) {
				blocks, eof, err := s.seqRead(p, from, r.Name, 1, r.OpID, true)
				// The single-block protocol reports EOF only on a read past
				// the end; the last block itself arrives with EOF false.
				if len(blocks) == 0 {
					return SeqReadResp{EOF: eof}, err
				}
				return SeqReadResp{Data: blocks[0]}, nil
			}}),
		msg.Cmd(msg.Def[*Server, SeqReadNReq, SeqReadNResp]{Name: "seqreadn",
			ReqSize: func(b SeqReadNReq) int { return 24 + len(b.Name) }, RespSize: func(b SeqReadNResp) int { return 16 + blocks(b.Blocks) },
			Route: func(r SeqReadNReq) (string, bool) { return r.Name, true }, OpID: func(r SeqReadNReq) uint64 { return r.OpID },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r SeqReadNReq) (SeqReadNResp, error) {
				blocks, eof, err := s.seqRead(p, from, r.Name, r.Max, r.OpID, false)
				return SeqReadNResp{Blocks: blocks, EOF: eof}, err
			}}),
		msg.Cmd(msg.Def[*Server, SeqWriteReq, SeqWriteResp]{Name: "seqwrite",
			ReqSize: func(b SeqWriteReq) int { return 16 + len(b.Name) + len(b.Data) },
			Route:   func(r SeqWriteReq) (string, bool) { return r.Name, true }, OpID: func(r SeqWriteReq) uint64 { return r.OpID },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r SeqWriteReq) (SeqWriteResp, error) {
				s.one[0] = r.Data
				_, err := s.write(p, from, r.Name, -1, s.one[:], r.OpID, true)
				return SeqWriteResp{}, err
			}}),
		msg.Cmd(msg.Def[*Server, RandReadReq, RandReadResp]{Name: "readat",
			RespSize: func(b RandReadResp) int { return 16 + len(b.Data) },
			Route:    func(r RandReadReq) (string, bool) { return r.Name, true },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r RandReadReq) (RandReadResp, error) {
				blocks, err := s.readAt(p, from, r.Name, r.BlockNum, 1, true)
				if err != nil {
					return RandReadResp{}, err
				}
				return RandReadResp{Data: blocks[0]}, nil
			}}),
		msg.Cmd(msg.Def[*Server, RandReadNReq, RandReadNResp]{Name: "readatn",
			ReqSize: func(b RandReadNReq) int { return 32 + len(b.Name) }, RespSize: func(b RandReadNResp) int { return 16 + blocks(b.Blocks) },
			Route: func(r RandReadNReq) (string, bool) { return r.Name, true },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r RandReadNReq) (RandReadNResp, error) {
				blocks, err := s.readAt(p, from, r.Name, r.BlockNum, r.Count, false)
				return RandReadNResp{Blocks: blocks}, err
			}}),
		msg.Cmd(msg.Def[*Server, RandWriteReq, RandWriteResp]{Name: "writeat",
			ReqSize: func(b RandWriteReq) int { return 24 + len(b.Name) + len(b.Data) },
			Route:   func(r RandWriteReq) (string, bool) { return r.Name, true }, OpID: func(r RandWriteReq) uint64 { return r.OpID },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r RandWriteReq) (RandWriteResp, error) {
				s.one[0] = r.Data
				_, err := s.write(p, from, r.Name, r.BlockNum, s.one[:], r.OpID, true)
				return RandWriteResp{}, err
			}}),
		msg.Cmd(msg.Def[*Server, RandWriteNReq, RandWriteNResp]{Name: "writeatn",
			ReqSize: func(b RandWriteNReq) int { return 32 + len(b.Name) + blocks(b.Blocks) }, RespSize: msg.Flat[RandWriteNResp](16),
			Route: func(r RandWriteNReq) (string, bool) { return r.Name, true }, OpID: func(r RandWriteNReq) uint64 { return r.OpID },
			Serve: func(s *Server, p sim.Proc, from msg.Addr, r RandWriteNReq) (RandWriteNResp, error) {
				written, err := s.write(p, from, r.Name, r.BlockNum, r.Blocks, r.OpID, false)
				return RandWriteNResp{Written: written}, err
			}}),
		msg.Cmd(msg.Def[*Server, ScatterReq, ScatterResp]{Name: "scatter", Serve: (*Server).scatter,
			ReqSize: func(b ScatterReq) int {
				n := 16
				for i := range b.Items {
					n += 24 + len(b.Items[i].Name) + len(b.Items[i].Data)
				}
				return n
			},
			RespSize: func(b ScatterResp) int {
				n := 16
				for i := range b.Results {
					n += 8 + len(b.Results[i].Data) + len(b.Results[i].Detail())
				}
				return n
			},
			// A scatter sends one request per shard, so any item names it.
			Route: func(r ScatterReq) (string, bool) {
				if len(r.Items) == 0 {
					return "", false
				}
				return r.Items[0].Name, true
			},
			OpID: func(r ScatterReq) uint64 { return r.OpID },
			Box: func(r ScatterResp) any {
				if r.Results == nil && r.OK() {
					return scatterLanded
				}
				return r
			}}),
		msg.Cmd(msg.Def[*Server, ParallelOpenReq, ParallelOpenResp]{Name: "popen", Serve: (*Server).parallelOpen,
			ReqSize: func(b ParallelOpenReq) int { return 16 + len(b.Name) + 8*len(b.Workers) },
			Route:   func(r ParallelOpenReq) (string, bool) { return r.Name, true }, OpID: func(r ParallelOpenReq) uint64 { return r.OpID }}),
		msg.Cmd(msg.Def[*Server, ParallelReadReq, ParallelReadResp]{Name: "pread", Serve: (*Server).parallelRead,
			OpID: func(r ParallelReadReq) uint64 { return r.OpID }}),
		msg.Cmd(msg.Def[*Server, ParallelWriteReq, ParallelWriteResp]{Name: "pwrite", Serve: (*Server).parallelWrite,
			OpID: func(r ParallelWriteReq) uint64 { return r.OpID }}),
		msg.Cmd(msg.Def[*Server, CloseJobReq, CloseJobResp]{Name: "closejob",
			OpID: func(r CloseJobReq) uint64 { return r.OpID },
			Serve: func(s *Server, _ sim.Proc, _ msg.Addr, r CloseJobReq) (CloseJobResp, error) {
				j, ok := s.jobs[r.JobID]
				if !ok {
					return CloseJobResp{}, ErrNoJob
				}
				j.port.Close()
				delete(s.jobs, r.JobID)
				return CloseJobResp{}, nil
			}}),
		msg.Cmd(msg.Def[*Server, ListReq, ListResp]{Name: "list",
			Serve: func(s *Server, p sim.Proc, _ msg.Addr, _ ListReq) (ListResp, error) {
				if err := s.lease(p); err != nil {
					return ListResp{}, err
				}
				return ListResp{Names: s.sortedNames()}, nil
			}}),
		msg.Cmd(msg.Def[*Server, GetInfoReq, GetInfoResp]{Name: "getinfo", RespSize: msg.Flat[GetInfoResp](64),
			Serve: func(s *Server, _ sim.Proc, _ msg.Addr, _ GetInfoReq) (GetInfoResp, error) {
				return GetInfoResp{Info: Info{P: len(s.nodes), Nodes: append([]msg.NodeID(nil), s.nodes...), Server: s.port.Addr()}}, nil
			}}),
		msg.Cmd(msg.Def[*Server, HealthReq, HealthResp]{Name: "health",
			Serve: func(s *Server, _ sim.Proc, _ msg.Addr, _ HealthReq) (HealthResp, error) {
				if s.health == nil {
					states := make([]NodeHealth, len(s.nodes))
					for i, n := range s.nodes {
						states[i] = NodeHealth{Node: n, State: Healthy}
					}
					return HealthResp{States: states}, nil
				}
				return HealthResp{States: s.health.snapshot(s.nodes)}, nil
			}}),
		msg.Cmd(msg.Def[*Server, RepairNodeReq, RepairNodeResp]{Name: "repairnode", Serve: (*Server).repairNode,
			OpID: func(r RepairNodeReq) uint64 { return r.OpID }}),
		msg.Cmd(msg.Def[*Server, FsckReq, FsckResp]{Name: "fsck", Serve: (*Server).fsck,
			RespSize: func(b FsckResp) int { return 24 + b.Report.TextBytes() }, OpID: func(r FsckReq) uint64 { return r.OpID }}),
		msg.Cmd(msg.Def[*Server, ScrubReq, ScrubResp]{Name: "scrub", Serve: (*Server).scrub,
			RespSize: func(b ScrubResp) int { return 24 + 12*len(b.Report.Errors) }}),
		msg.Cmd(msg.Def[*Server, RecoveryReq, RecoveryResp]{Name: "recovery", Serve: (*Server).recovery,
			RespSize: func(b RecoveryResp) int { return 64 + b.Report.Fsck.TextBytes() }}),
		msg.OneWay[*Server](func(b WorkerData) int { return 24 + len(b.Data) }),
		msg.OneWay[*Server](func(WorkerPoke) int { return defaultSize }),
		msg.OneWay[*Server](func(b WorkerBlock) int { return 24 + len(b.Data) }),
	)
}
