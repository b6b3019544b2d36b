package core

import (
	"fmt"
	"time"

	"bridge/internal/distrib"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// Scatter: single-block reads and positional writes on several files in one
// request. It has the shape of every other handler — validate, drain
// write-behind, lease, commit, LFS effect, fix-up — except that every
// item's LFS call is started (lfsReadStart, lfsWriteStart) before any is
// finished, so blocks that live on different nodes move side by side, and
// that every item has its own outcome.
//
// Reads are independent of everything else in the request. Writes are
// admitted together: if any write item is invalid or targets a node already
// declared dead, none is committed or started — the culprit carries its own
// error, the others ErrSkipped, and their files are untouched. Once
// admitted, each write lands or fails alone, with the single-block write's
// own fix-up (an append whose landing fails, or whose outcome is unknown,
// shrinks the size back). Items on one file run in item order: a later item
// waits for an earlier one on its file unless both are reads.
//
// Exactly-once: write item i commits as a ropWrite recorded under its own
// operation id, OpID+1+i. The request's OpID itself is never recorded by a
// write, because admit heals a whole request from one record, and a scatter
// whose first write committed and whose second did not must not heal as
// done; instead each write item is checked against the op table on its own.
// (A group of one keeps the whole reply in the client's session, like every
// other command, and re-executes a partly failed scatter: positional writes
// of the same bytes are idempotent.)

// scatterLanded is the reply to a scatter whose every item was a write that
// landed — every redundant append — boxed once, so that neither the reply
// nor the client sessions holding it cost an object each.
var scatterLanded any = ScatterResp{}

// itemOp is item i's operation id, and lastOp the highest id the request
// spans: the client's next operation takes an id above it, and admit refuses
// the request as stale only below it.
func (r ScatterReq) itemOp(i int) uint64 { return r.OpID + 1 + uint64(i) }
func (r ScatterReq) lastOp() uint64      { return r.itemOp(len(r.Items) - 1) }

// scatterCall is the server's state for one item of the scatter in hand.
type scatterCall struct {
	ent     *dirent
	pend    lfsPend
	started bool   // pend is in flight
	op      uint64 // write: the item's operation id
	old     int64  // write: the file's size before the item committed
	data    []byte // read: the payload
	err     error
}

// scatter handles a ScatterReq. The error return is a failure of the whole
// request, before anything was committed or after leadership was lost; item
// failures travel in the results, which are nil when every item was a write
// that landed.
func (s *Server) scatter(p sim.Proc, from msg.Addr, r ScatterReq) (ScatterResp, error) {
	n := len(r.Items)
	if n > maxBatchBlocks {
		return ScatterResp{}, fmt.Errorf("%w: scatter of %d exceeds %d items", ErrBadArg, n, maxBatchBlocks)
	}
	// serve charged the request's OpCPU; every further item costs the same.
	if n > 1 && s.cfg.OpCPU > 0 {
		p.Sleep(time.Duration(n-1) * s.cfg.OpCPU)
	}
	if cap(s.sc) < n {
		s.sc = make([]scatterCall, n)
	}
	calls := s.sc[:n]
	defer clear(calls)

	// Validate every item against the directory, then drain the files'
	// write-behind state: a deferred failure fails the whole request, with
	// nothing committed yet.
	for i := range r.Items {
		it, c := &r.Items[i], &calls[i]
		c.ent, c.err = s.lookup(it.Name)
		switch {
		case c.err != nil:
		case c.ent.meta.Spec.Kind == distrib.Disordered:
			c.err = fmt.Errorf("%w: scatter on disordered file %s", ErrBadArg, it.Name)
		case it.Write && len(it.Data) > PayloadBytes:
			c.err = fmt.Errorf("%w: payload %d exceeds %d", ErrBadArg, len(it.Data), PayloadBytes)
		}
	}
	for i := range r.Items {
		if calls[i].err != nil {
			continue
		}
		if r.Items[i].Write {
			s.raInvalidate(r.Items[i].Name)
		}
		if _, err := s.drainWB(p, r.Items[i].Name, from, r.OpID); err != nil {
			return ScatterResp{}, err
		}
	}
	if err := s.lease(p); err != nil {
		return ScatterResp{}, err
	}
	s.admitWrites(r.Items, calls)

	// Commit and start in item order, then finish in item order.
	var lost error // a commit failed: leadership is gone
	for i := range r.Items {
		it, c := &r.Items[i], &calls[i]
		if c.err != nil {
			continue
		}
		for j := range calls[:i] {
			if calls[j].started && calls[j].ent == c.ent && (it.Write || r.Items[j].Write) {
				s.scatterFinish(p, from, &r.Items[j], &calls[j])
			}
		}
		switch {
		case !it.Write:
			if it.BlockNum < 0 || it.BlockNum >= c.ent.meta.Blocks {
				c.err = fmt.Errorf("%w: block %d of %d", ErrEOF, it.BlockNum, c.ent.meta.Blocks)
				break
			}
			c.pend, c.err = s.lfsReadStart(c.ent, it.BlockNum)
			c.started = c.err == nil
		case lost != nil:
			c.err = lost
		case it.BlockNum > c.ent.meta.Blocks:
			// An earlier item on this file failed to land and took the
			// size back with it.
			c.err = fmt.Errorf("%w: block %d beyond size %d", ErrBadArg, it.BlockNum, c.ent.meta.Blocks)
		default:
			if r.OpID != 0 {
				c.op = r.itemOp(i)
			}
			lost = s.scatterWrite(p, from, it, c)
		}
	}
	for i := range calls {
		if calls[i].started {
			s.scatterFinish(p, from, &r.Items[i], &calls[i])
		}
	}
	if lost != nil {
		return ScatterResp{}, lost
	}

	var results []ScatterResult
	for i := range calls {
		c := &calls[i]
		if c.err == nil && r.Items[i].Write {
			continue
		}
		if results == nil {
			results = make([]ScatterResult, n)
		}
		results[i] = ScatterResult{Data: c.data, Status: statusFor(c.err)}
		if c.err != nil {
			s.curSpan.Annotate(fmt.Sprintf("item %d %s: %v", i, r.Items[i].Name, c.err))
		}
	}
	return ScatterResp{Results: results}, nil
}

// admitWrites decides whether the scatter's writes may start: every write
// item must be valid — its block at most the size its file will have once
// the earlier write items on that file have applied — and aimed at a node
// not declared dead. If one is not, it takes that item's error and every
// other write item ErrSkipped, before anything is committed.
func (s *Server) admitWrites(items []ScatterItem, calls []scatterCall) {
	culprit := -1
	for i := range items {
		it, c := &items[i], &calls[i]
		if !it.Write {
			continue
		}
		if c.err == nil {
			size := c.ent.meta.Blocks
			for j := range items[:i] {
				if items[j].Write && calls[j].ent == c.ent && items[j].BlockNum == size {
					size++
				}
			}
			if it.BlockNum < 0 || it.BlockNum > size {
				c.err = fmt.Errorf("%w: block %d beyond size %d", ErrBadArg, it.BlockNum, size)
			} else if l, err := c.ent.layout(); err != nil {
				c.err = err
			} else {
				c.err = s.down(c.ent.meta.Nodes[l.NodeFor(it.BlockNum)])
			}
		}
		if c.err != nil && culprit < 0 {
			culprit = i
		}
	}
	if culprit < 0 {
		return
	}
	for i := range items {
		if items[i].Write && calls[i].err == nil {
			calls[i].err = fmt.Errorf("%w: item %d (%s) cannot start", ErrSkipped, culprit, items[culprit].Name)
		}
	}
}

// scatterWrite commits one admitted write item under its own operation id
// and starts its landing. A write the op table already holds was committed
// by an earlier transmission of the request — and landed then, or by the
// takeover that followed — so it is done. The returned error is a failed
// commit: leadership is gone and the request with it.
func (s *Server) scatterWrite(p sim.Proc, from msg.Addr, it *ScatterItem, c *scatterCall) error {
	if s.grp.recorded(from, c.op) {
		s.grp.rm.heals.Add(1)
		s.curSpan.Annotate("write item healed from op table")
		return nil
	}
	c.old = c.ent.meta.Blocks
	s.one[0] = it.Data
	op := rop{
		Kind: ropWrite, Client: from, Op: c.op, Name: it.Name,
		Meta: Meta{FileID: c.ent.meta.FileID}, At: it.BlockNum, N: 1, Data: s.one[:],
	}
	if err := s.commit(p, op); err != nil {
		c.err = err
		return err
	}
	if c.pend, c.err = s.lfsWriteStart(c.ent, it.BlockNum, it.Data); c.err != nil {
		s.scatterFixup(p, from, it, c)
		return nil
	}
	c.started = true
	return nil
}

// scatterFinish collects one started item.
func (s *Server) scatterFinish(p sim.Proc, from msg.Addr, it *ScatterItem, c *scatterCall) {
	c.started = false
	if !it.Write {
		_, c.data, c.err = s.lfsReadFinish(p, c.ent, it.BlockNum, c.pend)
		return
	}
	if c.err = s.lfsWriteFinish(p, c.ent, c.pend); c.err != nil {
		s.scatterFixup(p, from, it, c)
	}
}

// scatterFixup corrects the committed size after a write item failed to
// land, or may not have: an append shrinks back, an overwrite keeps the
// size, and the item's record is forgotten so a retransmission re-executes.
func (s *Server) scatterFixup(p sim.Proc, from msg.Addr, it *ScatterItem, c *scatterCall) {
	fix := rop{Kind: ropFixup, Client: from, Op: c.op, Name: it.Name, Blocks: c.old}
	if cerr := s.commit(p, fix); cerr != nil {
		c.err = cerr
	}
}
