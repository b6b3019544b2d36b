package core

import (
	"errors"
	"fmt"

	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// The Bridge Server's part of reaching a storage node. Every message it sends
// one is an lfsStart and an lfsFinish through s.lc, whose lfs.Client rule uses
// s.down as its view; this file adds what only the server has: retransmission
// under LFSRetry and the missed-probe report.

// lfsPend is one started call awaiting its reply: what a start half hands
// its finish half, with what a retransmission resends.
type lfsPend struct {
	lfs.Call
	port string
	body any
	walk int64 // blocks the call may walk on its node (lfs.Client.AwaitWalk)
}

// down is the health fast-fail: ErrNodeDown for a node the monitor has
// declared dead, nil otherwise (and always without a monitor).
func (s *Server) down(node msg.NodeID) error {
	if s.health != nil && s.health.get(node) == Dead {
		return fmt.Errorf("%w: n%d", ErrNodeDown, node)
	}
	return nil
}

// anyDown is down over a placement: the first dead node's error.
func (s *Server) anyDown(nodes []msg.NodeID) error {
	for _, n := range nodes {
		if err := s.down(n); err != nil {
			return err
		}
	}
	return nil
}

// lfsStart sends the request to the node's port (lfs.PortName, or the agent's
// for a tree initiation) without waiting for its reply.
func (s *Server) lfsStart(node msg.NodeID, port string, body any) (lfsPend, error) {
	c, err := s.lc.Start(msg.Addr{Node: node, Port: port}, body)
	if err != nil {
		return lfsPend{}, lfsErr(err)
	}
	return lfsPend{Call: c, port: port, body: body}, nil
}

// lfsFinish collects a started call's reply, retransmitting timeouts under
// the configured retry policy (the body — and so any LFS OpID in it — is
// reused verbatim, so the node's dedup still holds) and reporting full
// timeouts to the health tracker.
func (s *Server) lfsFinish(p sim.Proc, c lfsPend) (*msg.Message, error) {
	m, err := s.lc.AwaitWalk(c.Call, c.walk)
	if s.retry != nil {
		for retry := 1; retry < s.retry.p.Attempts && errors.Is(err, msg.ErrTimeout); retry++ {
			p.Sleep(s.retry.backoff(retry))
			s.m.lfsRetries.Add(1)
			s.curSpan.Annotate(fmt.Sprintf("lfs retry %d n%d", retry, c.Node))
			var again lfsPend
			if again, err = s.lfsStart(c.Node, c.port, c.body); err != nil {
				return nil, err
			}
			c.Call = again.Call
			m, err = s.lc.AwaitWalk(c.Call, c.walk)
		}
	}
	if errors.Is(err, msg.ErrTimeout) {
		s.reportProbe(p.Now(), c.Node, false)
	}
	return m, err
}

// lfsCall is a start on the node's LFS port and its finish back to back.
func (s *Server) lfsCall(p sim.Proc, node msg.NodeID, body any) (*msg.Message, error) {
	c, err := s.lfsStart(node, lfs.PortName, body)
	if err != nil {
		return nil, err
	}
	return s.lfsFinish(p, c)
}

// lfsCallAs is lfsCall for a reply of kind T: the call's failure as lfsErr,
// else the reply with its status as an error (lfs.Reply).
func lfsCallAs[T msg.Reply](s *Server, p sim.Proc, node msg.NodeID, body any) (T, error) {
	m, err := s.lfsCall(p, node, body)
	if err != nil {
		var zero T
		return zero, lfsErr(err)
	}
	return lfs.Reply[T](m, nil)
}

// lfsSweepAs is lfsCallAs for a command that walks the node's whole volume
// (a check, a scrub): it asks the node for its size first, then gives the
// call lfs.Client's allowance per block it walks, walks times over (a repair
// walks the volume twice, to repair and then to check). LFSTimeout alone would
// fail a sweep of a large, fragmented volume while the node is still walking.
func lfsSweepAs[T msg.Reply](s *Server, p sim.Proc, node msg.NodeID, body any, walks int64) (T, error) {
	var zero T
	u, err := lfsCallAs[lfs.UsageResp](s, p, node, lfs.UsageReq{})
	if err != nil {
		return zero, err
	}
	c, err := s.lfsStart(node, lfs.PortName, body)
	if err != nil {
		return zero, err
	}
	c.walk = walks * int64(u.TotalBlocks)
	m, err := s.lfsFinish(p, c)
	if err != nil {
		return zero, lfsErr(err)
	}
	return lfs.Reply[T](m, nil)
}

// lfsErr classifies a failed LFS call for the client: a node marked down
// stays ErrNodeDown, anything else is ErrLFSFailed (once).
func lfsErr(err error) error {
	if errors.Is(err, ErrNodeDown) || errors.Is(err, ErrLFSFailed) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrLFSFailed, err)
}

// ranBefore reports whether the effect that m, the reply lfsFinish returned
// for c, answers for may have run before: a takeover may be replaying it (a
// replicated group), or m answers a retransmission. Create and delete are not
// idempotent on a storage node — a request resent after a lost reply is
// answered "exists" ("not found") by its own first transmission — so then
// their callers count that answer as success.
func (s *Server) ranBefore(c lfsPend, m *msg.Message) bool { return s.grp != nil || m.ReqID != c.ID }

// fanCall is one node's share of a fan-out: the call, and the reply once
// collected (nil if the call failed).
type fanCall struct {
	lfsPend
	reply *msg.Message
}

// lfsFanout sends body to the LFS of every node — every call started before
// any is awaited — and returns the calls with their replies in node order, in
// scratch the next fan-out reuses. It is all or nothing: nothing is sent
// when one of the nodes is already declared dead, and the first failed call
// ends it, the rest discarded. bestEffort (delete, which must free what it
// can reach) instead leaves out what cannot start, collects every reply that
// comes and reports the first failure.
func (s *Server) lfsFanout(p sim.Proc, nodes []msg.NodeID, body any, bestEffort bool) ([]fanCall, error) {
	if !bestEffort {
		if err := s.anyDown(nodes); err != nil {
			return nil, err
		}
	}
	var firstErr error
	calls := s.fan[:0]
	for _, n := range nodes {
		c, err := s.lfsStart(n, lfs.PortName, body)
		if err == nil {
			calls = append(calls, fanCall{lfsPend: c})
		} else if firstErr == nil {
			firstErr = err
		}
	}
	s.fan = calls
	for i := range calls {
		c := &calls[i]
		if firstErr != nil && !bestEffort {
			s.lc.Discard(c.Call)
			continue
		}
		var err error
		if c.reply, err = s.lfsFinish(p, c.lfsPend); err != nil && firstErr == nil {
			firstErr = lfsErr(err)
		}
	}
	return calls, firstErr
}
