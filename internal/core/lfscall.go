package core

import (
	"errors"
	"fmt"

	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// The one way the Bridge Server reaches a storage node. Every message it
// sends to one — a single block or a vector, a metadata fan-out, a chain
// link, a job transfer, a tree initiation — is an lfsStart and an lfsFinish
// (write-behind's idle steps may take an arrived reply early with lfsPoll),
// so all of them fast-fail on a node declared dead, are abandoned in flight
// when one dies, retransmit under LFSRetry, and on a full timeout discard
// their id and count as a missed probe. Nothing outside this file touches
// s.lc (TestOneLFSPath holds that line).

// lfsPend is one started call awaiting its reply: what a start half hands
// its finish half.
type lfsPend struct {
	node msg.NodeID
	port string
	id   uint64
	body any
	size int
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

// lfsStart fast-fails on a dead node and otherwise sends the request to the
// node's port (lfs.PortName, or the agent's for a tree initiation) without
// waiting for its reply.
func (s *Server) lfsStart(node msg.NodeID, port string, body any, size int) (lfsPend, error) {
	if err := s.down(node); err != nil {
		return lfsPend{}, err
	}
	id, err := s.lc.Start(msg.Addr{Node: node, Port: port}, body, size)
	if err != nil {
		return lfsPend{}, lfsErr(err)
	}
	return lfsPend{node: node, port: port, id: id, body: body, size: size}, nil
}

// lfsAwait waits for a started call's reply for up to LFSTimeout. Under a
// health monitor it waits one heartbeat period at a time and abandons the
// call with ErrNodeDown once the node is declared dead, so a call already in
// flight when its node fails costs the monitor's detection time instead of
// the whole timeout. An abandoned call's outcome is unknown, exactly like a
// timed-out one's.
func (s *Server) lfsAwait(c lfsPend) (*msg.Message, error) {
	if s.health == nil {
		return s.lc.AwaitTimeout(c.id, s.cfg.LFSTimeout)
	}
	every := s.health.cfg.Every
	for left := s.cfg.LFSTimeout; ; left -= every {
		m, err := s.lc.AwaitTimeout(c.id, min(left, every))
		if !errors.Is(err, msg.ErrTimeout) {
			return m, err
		}
		if derr := s.down(c.node); derr != nil {
			s.lc.Discard(c.id)
			return nil, derr
		}
		if left <= every {
			return nil, err
		}
	}
}

// lfsFinish collects a started call's reply, retransmitting timeouts under
// the configured retry policy (the body — and so any LFS OpID in it — is
// reused verbatim, so the node's dedup still holds) and reporting full
// timeouts to the health tracker. A timed-out call's id is discarded so a
// late reply to it cannot be mistaken for a retransmission's.
func (s *Server) lfsFinish(p sim.Proc, c lfsPend) (*msg.Message, error) {
	m, err := s.lfsAwait(c)
	if s.retry != nil {
		for retry := 1; retry < s.retry.p.Attempts && errors.Is(err, msg.ErrTimeout); retry++ {
			s.lc.Discard(c.id)
			p.Sleep(s.retry.backoff(retry))
			s.m.lfsRetries.Add(1)
			s.curSpan.Annotate(fmt.Sprintf("lfs retry %d n%d", retry, c.node))
			if c, err = s.lfsStart(c.node, c.port, c.body, c.size); err != nil {
				return nil, err
			}
			m, err = s.lfsAwait(c)
		}
	}
	if errors.Is(err, msg.ErrTimeout) {
		s.lc.Discard(c.id)
		s.reportProbe(p.Now(), c.node, false)
	}
	return m, err
}

// lfsPoll is lfsFinish without the wait: the reply to c if it has already
// arrived (charged like any received message), or ok false at no virtual
// time. A miss leaves the call to a later poll or to its lfsFinish, which
// owns every timeout, abandon and retransmission.
func (s *Server) lfsPoll(c lfsPend) (*msg.Message, bool) { return s.lc.TryAwait(c.id) }

// lfsCall is a start on the node's LFS port and its finish back to back.
func (s *Server) lfsCall(p sim.Proc, node msg.NodeID, body any, size int) (*msg.Message, error) {
	c, err := s.lfsStart(node, lfs.PortName, body, size)
	if err != nil {
		return nil, err
	}
	return s.lfsFinish(p, c)
}

// lfsDiscard abandons a started call nobody will finish.
func (s *Server) lfsDiscard(c lfsPend) { s.lc.Discard(c.id) }

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
func (s *Server) ranBefore(c lfsPend, m *msg.Message) bool { return s.grp != nil || m.ReqID != c.id }

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
func (s *Server) lfsFanout(p sim.Proc, nodes []msg.NodeID, body any, size int, bestEffort bool) ([]fanCall, error) {
	if !bestEffort {
		if err := s.anyDown(nodes); err != nil {
			return nil, err
		}
	}
	var firstErr error
	calls := s.fan[:0]
	for _, n := range nodes {
		c, err := s.lfsStart(n, lfs.PortName, body, size)
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
			s.lfsDiscard(c.lfsPend)
			continue
		}
		var err error
		if c.reply, err = s.lfsFinish(p, c.lfsPend); err != nil && firstErr == nil {
			firstErr = lfsErr(err)
		}
	}
	return calls, firstErr
}
