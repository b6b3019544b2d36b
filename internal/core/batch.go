package core

import (
	"fmt"

	"bridge/internal/distrib"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// Scatter-gather I/O: the batched counterpart of lfsRead/lfsWrite. A run of
// consecutive global blocks is a window on a stream (lfs.Stream): one
// vectored LFS call per node, all started before any is awaited, taken in
// node-index order. Each call is the single-block path's halves, lfsStart and
// lfsFinish, so fast-fail, in-flight abandon and LFSRetry are the same.

// maxBatchBlocks bounds one batched request, keeping reply messages (and
// the server's working set per request) within reason.
const maxBatchBlocks = 1024

// vecRun is the slice of a global block range that lands on one node.
type vecRun struct {
	nodeIdx int
	node    msg.NodeID
	locals  []uint32
	globals []int64
}

// splitRange partitions [start, start+count) by layout into per-node runs,
// returned in node-index order. Global block numbers ascend within each run.
// The runs' locals (and globals) are capacity-clipped windows of one array
// sized by a counting pass, so a split costs three objects however many
// blocks and nodes it spans.
func splitRange(ent *dirent, l distrib.Layout, start int64, count int) []vecRun {
	byNode := make([]vecRun, len(ent.meta.Nodes))
	for b := start; b < start+int64(count); b++ {
		byNode[l.NodeFor(b)].nodeIdx++ // block count, until the windows are cut
	}
	locals := make([]uint32, count)
	globals := make([]int64, count)
	off := 0
	for idx := range byNode {
		r := &byNode[idx]
		n := r.nodeIdx
		r.nodeIdx, r.node = idx, ent.meta.Nodes[idx]
		r.locals, r.globals = locals[off:off:off+n], globals[off:off:off+n]
		off += n
	}
	for b := start; b < start+int64(count); b++ {
		r := &byNode[l.NodeFor(b)]
		r.locals = append(r.locals, uint32(l.LocalFor(b)))
		r.globals = append(r.globals, b)
	}
	runs := byNode[:0]
	for _, r := range byNode {
		if len(r.locals) > 0 {
			runs = append(runs, r)
		}
	}
	return runs
}

// vecCall is one started vectored LFS call and the run it carries.
type vecCall struct {
	lfsPend
	run vecRun
}

// vecStream holds vectored calls in flight; the server's finish each call
// through lfsFinish.
type vecStream = lfs.Stream[vecCall]

func (s *Server) newStream() vecStream { return vecStream{C: s.lc, Finish: s.vec.Finish} }

// startRun starts one node's share of the window from start on st: a
// vectored read of run's blocks, or with payloads a write of them with their
// Bridge headers, under a fresh OpID for the node's dedup.
func (s *Server) startRun(st *vecStream, ent *dirent, run vecRun, start int64, payloads [][]byte) error {
	var body any
	if payloads == nil {
		body = lfs.ReadVecReq{FileID: ent.meta.LFSFileID, Blocks: run.locals, Hint: ent.hintFor(run.node)}
	} else {
		vw := make([]lfs.VecWrite, len(run.locals))
		for j, local := range run.locals {
			g := run.globals[j]
			payload := payloads[g-start]
			vw[j] = lfs.VecWrite{BlockNum: local, Head: ent.headFor(g, len(payload)), Data: payload}
		}
		s.nextLFSOp++
		body = lfs.WriteVecReq{FileID: ent.meta.LFSFileID, Blocks: vw, Hint: ent.hintFor(run.node), OpID: s.nextLFSOp}
	}
	c, err := s.lfsStart(run.node, lfs.PortName, body)
	return st.Start(vecCall{lfsPend: c, run: run}, err)
}

// openVec opens a window of count consecutive global blocks from start on st
// — a read, or with payloads a write of them — and starts every run of it. A
// run that cannot start leaves nothing of the window in flight.
func (s *Server) openVec(st *vecStream, ent *dirent, start int64, count int, payloads [][]byte) error {
	l, err := ent.layout()
	if err != nil {
		return err
	}
	st.Open(start, count)
	for _, run := range splitRange(ent, l, start, count) {
		if err := s.startRun(st, ent, run, start, payloads); err != nil {
			return err
		}
	}
	return nil
}

// takeRead takes st's oldest window, a read, and returns its payloads in
// global block order. The first failure (in node-index, then block order)
// fails the read, and the window's replies not yet taken are discarded.
func (s *Server) takeRead(st *vecStream, ent *dirent) (out [][]byte, err error) {
	start, count := st.Window(0)
	out = make([][]byte, count)
	st.Take(func(c vecCall, m *msg.Message, ferr error) bool {
		err = readRun(ent, c.run, m, ferr, out, start)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readRun places one node's reply to a vectored read into out, the window
// from start.
func readRun(ent *dirent, run vecRun, m *msg.Message, err error, out [][]byte, start int64) error {
	if err != nil {
		return lfsErr(err)
	}
	resp, err := lfs.Reply[lfs.ReadVecResp](m, nil)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrLFSFailed, err)
	}
	if len(resp.Blocks) != len(run.globals) {
		return fmt.Errorf("%w: vectored read returned %d of %d blocks", ErrLFSFailed, len(resp.Blocks), len(run.globals))
	}
	for j, v := range resp.Blocks {
		if err := lfs.Err(v.Status); err != nil {
			return fmt.Errorf("%w: block %d: %w", ErrLFSFailed, run.globals[j], err)
		}
		ent.setHint(run.node, v.Addr)
		_, payload, err := DecodeBlock(v.Data)
		if err != nil {
			return err
		}
		out[run.globals[j]-start] = payload
	}
	return nil
}

// takeWrite takes st's oldest window, a write, reply by reply (later nodes'
// writes may have landed, and their hints matter). It returns the landed
// prefix of global blocks, with the first failure in block order as the error.
func (s *Server) takeWrite(st *vecStream, ent *dirent) (int, error) {
	start, count := st.Window(0)
	landed := make([]bool, count)
	blockErr := make([]error, count)
	st.Take(func(c vecCall, m *msg.Message, err error) bool {
		var resp lfs.WriteVecResp
		if err != nil {
			err = lfsErr(err)
		} else if resp, err = lfs.Reply[lfs.WriteVecResp](m, nil); err != nil {
			err = fmt.Errorf("%w: %w", ErrLFSFailed, err)
		} else if len(resp.Blocks) != len(c.run.globals) {
			err = fmt.Errorf("%w: vectored write returned %d of %d blocks", ErrLFSFailed, len(resp.Blocks), len(c.run.globals))
		}
		for j, g := range c.run.globals {
			bad := err
			if bad == nil {
				if bad = lfs.Err(resp.Blocks[j].Status); bad != nil {
					bad = fmt.Errorf("%w: block %d: %w", ErrLFSFailed, g, bad)
				}
			}
			if bad != nil {
				blockErr[g-start] = bad
				continue
			}
			landed[g-start] = true
			ent.setHint(c.run.node, resp.Blocks[j].Addr)
		}
		return true
	})
	prefix := 0
	for prefix < count && landed[prefix] {
		prefix++
	}
	if prefix == count {
		return prefix, nil
	}
	return prefix, blockErr[prefix] // a failed call claims all of its run's blocks
}

// lfsReadN fetches count consecutive global blocks starting at start with
// one vectored LFS call per node, so all the constituent disks seek
// concurrently: a window opened and taken at once. Payloads return in global
// block order.
func (s *Server) lfsReadN(ent *dirent, start int64, count int) ([][]byte, error) {
	if count <= 0 {
		return nil, nil
	}
	if err := s.openVec(&s.vec, ent, start, count, nil); err != nil {
		return nil, err
	}
	return s.takeRead(&s.vec, ent)
}

// lfsWriteN is lfsReadN's twin: it stores consecutive global blocks from
// start and returns the landed prefix (takeWrite).
func (s *Server) lfsWriteN(ent *dirent, start int64, payloads [][]byte) (int, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	if err := s.openVec(&s.vec, ent, start, len(payloads), payloads); err != nil {
		return 0, err
	}
	return s.takeWrite(&s.vec, ent)
}

// readBlocks fetches count consecutive blocks of a formulaic file. A
// single-block command (one) is answered with the single-block LFS call —
// the paper's naive path, one ReadReq per request; every other read is one
// vectored call per node.
func (s *Server) readBlocks(p sim.Proc, ent *dirent, pos int64, count int, one bool) ([][]byte, error) {
	if one {
		data, err := s.lfsRead(p, ent, pos)
		if err != nil {
			return nil, err
		}
		s.one[0] = data
		return s.one[:], nil
	}
	return s.lfsReadN(ent, pos, count)
}

// writeBlocks is readBlocks' twin. (A takeover replays every logged write as
// vectors; the writes are positional, so the shape it first landed in does
// not matter.)
func (s *Server) writeBlocks(p sim.Proc, ent *dirent, pos int64, payloads [][]byte, one bool) (int, error) {
	if one {
		if err := s.lfsWrite(p, ent, pos, payloads[0]); err != nil {
			return 0, err
		}
		return 1, nil
	}
	return s.lfsWriteN(ent, pos, payloads)
}

// seqRead reads up to max blocks at the client's cursor — SeqRead (one set,
// max 1) and its batched form SeqReadN. Formulaic files go through the
// read-ahead cache when one is configured, or straight to the LFS layer;
// disordered files follow their chain (inherently one block at a time, but
// still one client RPC). The read happens first (so an error never advances
// the cursor), then the cursor movement commits — which on a replicated
// group makes the reply healable: a retransmission re-reads the same
// recorded window.
func (s *Server) seqRead(p sim.Proc, from msg.Addr, name string, max int, opID uint64, one bool) ([][]byte, bool, error) {
	if max <= 0 {
		return nil, false, fmt.Errorf("%w: batch of %d blocks", ErrBadArg, max)
	}
	if max > maxBatchBlocks {
		max = maxBatchBlocks
	}
	ent, err := s.lookup(name)
	if err != nil {
		return nil, false, err
	}
	if _, err := s.drainWB(p, name, from, opID); err != nil {
		return nil, false, err
	}
	if err := s.lease(p); err != nil {
		return nil, false, err
	}
	key := cursorKey{client: from, name: name}
	cur := s.cursors[key]
	if cur == nil && s.grp == nil {
		// Implicit open: the open operation is only a hint, so a read
		// without one still works; a group of one just pays the size
		// refresh here. (A replicated group has no refresh to pay, and its
		// cursor appears when the read below commits.)
		if err := s.refreshSize(p, ent); err != nil {
			return nil, false, err
		}
		if err := s.commit(p, rop{Kind: ropOpen, Client: from, Name: name}); err != nil {
			return nil, false, err
		}
		cur = s.cursors[key]
	}
	var pos int64
	if cur != nil {
		pos = cur.readPos
	}
	if pos >= ent.meta.Blocks {
		// EOF replies commit nothing: the cursor does not move.
		return nil, true, nil
	}
	count := max
	if remain := ent.meta.Blocks - pos; int64(count) > remain {
		count = int(remain)
	}
	var blocks [][]byte
	switch {
	case ent.meta.Spec.Kind == distrib.Disordered:
		blocks, err = s.readChainN(p, ent, cur, count)
	case s.ra != nil:
		blocks, err = s.ra.read(s, ent, from, pos, count)
	default:
		blocks, err = s.readBlocks(p, ent, pos, count, one)
	}
	if err != nil {
		return nil, false, err
	}
	eof := pos+int64(count) >= ent.meta.Blocks
	op := rop{Kind: ropSeqRead, Client: from, Op: opID, Name: name, At: pos, N: count, EOF: eof}
	if err := s.commit(p, op); err != nil {
		return nil, false, err
	}
	return blocks, eof, nil
}

// readChainN follows a disordered chain for count blocks, using (and
// updating) the cursor's chain position. A mid-batch error discards the
// partial result, so the cursor's chain state is restored to its entry
// value: the caller leaves readPos unchanged on error, and the invariant
// that chain points at block readPos must hold for the retry.
func (s *Server) readChainN(p sim.Proc, ent *dirent, cur *cursor, count int) ([][]byte, error) {
	savedChain, savedValid := cur.chain, cur.chainValid
	out := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		var (
			payload []byte
			next    chainLoc
			hasNext bool
			err     error
		)
		if cur.chainValid {
			payload, next, hasNext, err = s.readChainBlock(p, ent, cur.chain)
		} else {
			payload, next, hasNext, err = s.readChainAt(p, ent, cur.readPos+int64(i))
		}
		if err != nil {
			cur.chain, cur.chainValid = savedChain, savedValid
			return nil, err
		}
		cur.chain, cur.chainValid = next, hasNext
		out = append(out, payload)
	}
	return out, nil
}

// readAt reads count blocks starting at blockNum — RandRead (one set,
// count 1) and its batched form RandReadN. It bypasses the read-ahead
// cache (which is a sequential-reader optimization).
func (s *Server) readAt(p sim.Proc, from msg.Addr, name string, blockNum int64, count int, one bool) ([][]byte, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: batch of %d blocks", ErrBadArg, count)
	}
	if count > maxBatchBlocks {
		count = maxBatchBlocks
	}
	ent, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if _, err := s.drainWB(p, name, from, 0); err != nil {
		return nil, err
	}
	if err := s.lease(p); err != nil {
		return nil, err
	}
	if blockNum < 0 || blockNum >= ent.meta.Blocks {
		return nil, fmt.Errorf("%w: block %d of %d", ErrEOF, blockNum, ent.meta.Blocks)
	}
	if remain := ent.meta.Blocks - blockNum; int64(count) > remain {
		count = int(remain)
	}
	if ent.meta.Spec.Kind == distrib.Disordered {
		return s.readChainN(p, ent, &cursor{readPos: blockNum}, count)
	}
	return s.readBlocks(p, ent, blockNum, count, one)
}

// write stores len(payloads) consecutive blocks starting at blockNum —
// SeqWrite and RandWrite (one set, one payload) and the batched RandWriteN.
// blockNum -1 or the current size appends; a run may overwrite the tail
// and extend past it. It returns how many blocks from the front of the run
// landed; on partial failure the file size covers exactly the contiguous
// prefix, so a retry of the same run is safe.
func (s *Server) write(p sim.Proc, from msg.Addr, name string, blockNum int64, payloads [][]byte, opID uint64, one bool) (int, error) {
	ent, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	for _, payload := range payloads {
		if len(payload) > PayloadBytes {
			return 0, fmt.Errorf("%w: payload %d exceeds %d", ErrBadArg, len(payload), PayloadBytes)
		}
	}
	if len(payloads) == 0 {
		return 0, nil
	}
	if len(payloads) > maxBatchBlocks {
		return 0, fmt.Errorf("%w: batch of %d exceeds %d blocks", ErrBadArg, len(payloads), maxBatchBlocks)
	}
	s.raInvalidate(name)
	disordered := ent.meta.Spec.Kind == distrib.Disordered
	if one && s.wb != nil && !disordered && (blockNum < 0 || blockNum == ent.meta.Blocks) {
		// A single-block append is what write-behind buffers.
		if err := s.appendBehind(p, ent, payloads[0], from, opID); err != nil {
			return 0, err
		}
		return 1, nil
	}
	// Everything else writes through, so any write-behind state for the
	// file drains first (it may own the tail this run starts at). The
	// drain can shrink the file on a deferred failure, hence the bounds
	// check comes after it.
	if _, err := s.drainWB(p, name, from, opID); err != nil {
		return 0, err
	}
	if blockNum < 0 {
		blockNum = ent.meta.Blocks
	}
	if blockNum > ent.meta.Blocks {
		return 0, fmt.Errorf("%w: block %d beyond size %d", ErrBadArg, blockNum, ent.meta.Blocks)
	}
	if disordered {
		return s.writeDisordered(p, ent, blockNum, payloads)
	}
	// The whole run — overwrite, append, or both — commits with its
	// payloads (apply extends the size to cover it), so on a replicated
	// group a retransmission heals and a failover replays the identical
	// bytes. Then it lands on the storage nodes; a failed landing corrects
	// the committed size with a fixup: appends shrink back to the durable
	// prefix, interior overwrites keep the old size.
	old := ent.meta.Blocks
	op := rop{
		Kind: ropWrite, Client: from, Op: opID, Name: name,
		Meta: Meta{FileID: ent.meta.FileID}, At: blockNum, N: len(payloads), Data: payloads,
	}
	if err := s.commit(p, op); err != nil {
		return 0, err
	}
	written, err := s.writeBlocks(p, ent, blockNum, payloads, one)
	if err != nil {
		fixSize := blockNum + int64(written)
		if old > fixSize {
			fixSize = old
		}
		fix := rop{Kind: ropFixup, Client: from, Op: opID, Name: name, Blocks: fixSize}
		if cerr := s.commit(p, fix); cerr != nil {
			return written, cerr
		}
	}
	return written, err
}

// writeDisordered applies a write to a chain file one block at a time (the
// chain serializes placement), preserving prefix semantics. Only a group
// of one has chain files; their size and chain state live in the entry.
func (s *Server) writeDisordered(p sim.Proc, ent *dirent, blockNum int64, payloads [][]byte) (int, error) {
	for i, payload := range payloads {
		b := blockNum + int64(i)
		var err error
		if b == ent.meta.Blocks {
			err = s.appendDisordered(p, ent, payload)
		} else {
			err = s.overwriteDisordered(p, ent, b, payload)
		}
		if err != nil {
			return i, err
		}
	}
	return len(payloads), nil
}
