// Package raft replicates a state machine behind a Raft-style log, sized
// for the deterministic virtual-time simulation: a passive Node holds the
// consensus state and is driven by its owning server process (Tick on
// timer expiry, Step on every peer message), election timeouts are drawn
// from a seeded generator so whole runs replay byte-identically, and the
// persistent state — term, vote, snapshot, log suffix — rides the PR 6
// disk layer so a killed replica recovers exactly what it promised.
//
// The shape follows the Raft paper (Ongaro & Ousterhout, 2014): leader
// election with randomized timeouts, AppendEntries consistency checking
// with conflict back-off, commit advancement restricted to current-term
// entries via a no-op barrier, InstallSnapshot for new or lagging
// replicas, and a heartbeat-ack leader lease for local reads.
package raft

import (
	"time"

	"bridge/internal/msg"
)

// Entry is one replicated log record. Data is opaque to the raft layer;
// a nil Data is the no-op barrier a fresh leader commits to learn the
// durable frontier of previous terms.
type Entry struct {
	Index uint64
	Term  uint64
	Data  []byte
}

// VoteReq solicits a vote for Candidate in Term. LastIndex/LastTerm
// position the candidate's log for the up-to-date check.
type VoteReq struct {
	Term      uint64
	Candidate int
	LastIndex uint64
	LastTerm  uint64
}

// VoteResp answers a VoteReq. Granted is only meaningful when Term
// matches the candidate's current term.
type VoteResp struct {
	Term    uint64
	From    int
	Granted bool
}

// AppendReq replicates Entries after (PrevIndex, PrevTerm) and doubles as
// the heartbeat when Entries is empty. SentAt is the leader's send time,
// echoed back so acks renew the leader lease without clock coupling.
type AppendReq struct {
	Term      uint64
	Leader    int
	PrevIndex uint64
	PrevTerm  uint64
	Entries   []Entry
	Commit    uint64
	SentAt    time.Duration
}

// AppendResp acknowledges an AppendReq. On success MatchIndex is the last
// index known replicated on From; on failure it hints the follower's log
// end so the leader can back off in one round instead of one per entry.
type AppendResp struct {
	Term       uint64
	From       int
	Ok         bool
	MatchIndex uint64
	SentAt     time.Duration
}

// SnapReq installs a state-machine snapshot covering the log through
// Index (whose term is SnapTerm) on a follower too far behind the
// leader's compacted log.
type SnapReq struct {
	Term     uint64
	Leader   int
	Index    uint64
	SnapTerm uint64
	Data     []byte
}

// SnapResp acknowledges a SnapReq; MatchIndex is the follower's snapshot
// frontier afterwards.
type SnapResp struct {
	Term       uint64
	From       int
	MatchIndex uint64
}

// The consensus protocol is declared once, in exchanges: each entry pairs a
// request with its reply and prices both for the transport's latency model
// (msg.Table). The owning server tells consensus traffic from client
// requests by it, and its codec encodes every body.
// Node.Step's switch is the algorithm, not a list of the protocol.
var exchanges = msg.NewTable[any](24, nil, nil,
	msg.Cmd(msg.Def[any, VoteReq, VoteResp]{ReqSize: msg.Flat[VoteReq](40), RespSize: msg.Flat[VoteResp](24)}),
	msg.Cmd(msg.Def[any, AppendReq, AppendResp]{RespSize: msg.Flat[AppendResp](40), ReqSize: func(b AppendReq) int {
		n := 64
		for _, e := range b.Entries {
			n += 24 + len(e.Data)
		}
		return n
	}}),
	msg.Cmd(msg.Def[any, SnapReq, SnapResp]{ReqSize: func(b SnapReq) int { return 48 + len(b.Data) }, RespSize: msg.Flat[SnapResp](32)}),
)

// WireSize estimates a message's bytes on the wire for the transport's
// latency model.
func WireSize(body any) int {
	n, _ := exchanges.Price(body)
	return n
}

// IsMessage reports whether body belongs to the consensus protocol.
func IsMessage(body any) bool {
	_, ok := exchanges.Price(body)
	return ok
}

// Bodies returns a zero value of every consensus message, in exchange order.
func Bodies() []any { return exchanges.Bodies() }
