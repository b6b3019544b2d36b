package tools

import (
	"bytes"
	"errors"
	"fmt"

	"bridge/internal/core"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// This file implements the token-passing parallel merge of Figure 4 of the
// paper: merging two files each interleaved across t/2 nodes into one file
// interleaved across t nodes, using t/2 reader processes per input and t
// writer processes for the destination.
//
// The token carries the least unwritten key from the *other* input file,
// the name (port) of the process holding that record, and the sequence
// number of the next destination record. A process holding the token
// compares the token's key with its least unwritten local key: if its own
// record sorts first (or ties), it forwards the token along its own ring
// and then emits the record to the destination writer for that sequence
// number — the record's send is off the token's serial path; otherwise it
// sends the token back to the originator, now advertising its own key.
// Correctness rests on the paper's invariant, restated for that order: every
// token hop that writes is followed by its holder emitting that record before
// it receives again — so each sequence number is emitted once, in
// nondecreasing key order. Writers reorder by sequence number, since a record
// may arrive after its successors.
//
// As in the paper there is one token per merge: one message, made by start.
// It belongs to whichever reader holds it, which rewrites it in place, sends
// it on and does not touch it after the send.

// Messages of the merge protocol.
type (
	// mergeToken is the Figure 4 token.
	mergeToken struct {
		Start bool
		End   bool
		Key   []byte
		Orig  msg.Addr // process holding the advertised key
		Seq   int64    // next destination sequence number
	}
	// mergeRecord carries one record to its destination writer.
	mergeRecord struct {
		Seq int64
		Raw []byte // full LFS data area (Bridge header + payload)
	}
	// mergeStop terminates the reader processes once the merge is done.
	mergeStop struct{}
	// mergeFinish tells each writer the total record count so it knows
	// when its column is complete.
	mergeFinish struct{ Total int64 }
)

// recordEnvelope is a shipped record and the message that carries it, made
// in one allocation. It belongs to the writer that receives it.
type recordEnvelope struct {
	m msg.Message
	r mergeRecord
}

// mergeWireSize prices a merge body. A body it does not know is a bug, not
// an 8-byte message: it panics rather than silently move every sort number.
func mergeWireSize(body any) int {
	switch b := body.(type) {
	case *mergeToken:
		return 48 + len(b.Key)
	case *mergeRecord:
		return 16 + len(b.Raw)
	case mergeFinish:
		return 16
	case mergeStop:
		return 8
	default:
		panic(fmt.Sprintf("tools: merge body %T has no wire size", body))
	}
}

// mergeGroup describes one merge: group nodes (t of them, t even; the first
// t/2 hold input A's columns, the rest input B's), the input and output LFS
// file ids (the same id on every node), and the key width.
type mergeGroup struct {
	seq      uint64 // unique id for port naming
	pass     int
	group    int
	nodes    []msg.NodeID
	inFile   uint32
	outFile  uint32
	keyBytes int

	// Ports, all created by the controller before any worker starts so
	// that no message can ever race a port's creation.
	readerPorts []*msg.Port // len t: 0..t/2-1 read A, t/2..t-1 read B
	writerPorts []*msg.Port // len t
}

// newMergeGroup allocates the group's ports.
func newMergeGroup(network *msg.Network, seq uint64, pass, group int, nodes []msg.NodeID, inFile, outFile uint32, keyBytes int) *mergeGroup {
	g := &mergeGroup{
		seq: seq, pass: pass, group: group,
		nodes: nodes, inFile: inFile, outFile: outFile, keyBytes: keyBytes,
	}
	t := len(nodes)
	g.readerPorts = make([]*msg.Port, t)
	g.writerPorts = make([]*msg.Port, t)
	for i, n := range nodes {
		g.readerPorts[i] = network.NewPort(msg.Addr{Node: n, Port: fmt.Sprintf("mg%d.p%d.g%d.r%d", seq, pass, group, i)})
		g.writerPorts[i] = network.NewPort(msg.Addr{Node: n, Port: fmt.Sprintf("mg%d.p%d.g%d.w%d", seq, pass, group, i)})
	}
	return g
}

// start makes the group's one token message and injects it, as the Start
// token, into the first process of input A.
func (g *mergeGroup) start(pc sim.Proc, network *msg.Network) {
	tok := &mergeToken{Start: true}
	_ = network.Send(pc, 0, g.readerPorts[0].Addr(), &msg.Message{Body: tok, Size: mergeWireSize(tok)})
}

// close releases the group's ports.
func (g *mergeGroup) close() {
	for _, p := range g.readerPorts {
		p.Close()
	}
	for _, p := range g.writerPorts {
		p.Close()
	}
}

// half returns which input file (0 = A, 1 = B) position i serves, and its
// ring position within that input.
func (g *mergeGroup) half(i int) (file, ring int) {
	t2 := len(g.nodes) / 2
	if i < t2 {
		return 0, i
	}
	return 1, i - t2
}

// ringNext returns the reader port of the successor in the same input ring.
func (g *mergeGroup) ringNext(i int) msg.Addr {
	t2 := len(g.nodes) / 2
	file, ring := g.half(i)
	next := (ring + 1) % t2
	return g.readerPorts[file*t2+next].Addr()
}

// otherFirst returns the first reader of the other input file.
func (g *mergeGroup) otherFirst(i int) msg.Addr {
	t2 := len(g.nodes) / 2
	file, _ := g.half(i)
	return g.readerPorts[(1-file)*t2].Addr()
}

// writerFor returns the writer port for a destination sequence number.
func (g *mergeGroup) writerFor(seq int64) msg.Addr {
	return g.writerPorts[int(seq%int64(len(g.nodes)))].Addr()
}

// keyOf extracts a record's sort key from its raw block.
func keyOf(raw []byte, keyBytes int) ([]byte, error) {
	_, payload, err := core.DecodeBlock(raw)
	if err != nil {
		return nil, err
	}
	if len(payload) < keyBytes {
		// Short records sort by their full payload, zero-padded.
		k := make([]byte, keyBytes)
		copy(k, payload)
		return k, nil
	}
	return payload[:keyBytes], nil
}

// nextKeyed is next for the sort: the block with its key, both nil at the end.
func (r *colReader) nextKeyed(keyBytes int) (raw, key []byte, err error) {
	raw, num, err := r.next()
	if err != nil || raw == nil {
		return nil, nil, err
	}
	if key, err = keyOf(raw, keyBytes); err != nil {
		return nil, nil, fmt.Errorf("block %d: %w", num, err)
	}
	return raw, key, nil
}

// stopAll ends a merge that cannot finish: every process of the group gets a
// mergeStop in place of the token or record it is waiting for.
func (g *mergeGroup) stopAll(p sim.Proc, network *msg.Network, node msg.NodeID) {
	for _, ports := range [][]*msg.Port{g.readerPorts, g.writerPorts} {
		for _, port := range ports {
			_ = network.Send(p, node, port.Addr(), &msg.Message{Body: mergeStop{}, Size: mergeWireSize(mergeStop{})})
		}
	}
}

// runReader executes the Figure 4 process for position i of the group.
func (g *mergeGroup) runReader(p sim.Proc, network *msg.Network, node msg.NodeID, i int) error {
	lc := lfs.NewClient(p, network, node, fmt.Sprintf("mg%d.p%d.g%d.rc%d", g.seq, g.pass, g.group, i))
	defer lc.C.Close()
	port := g.readerPorts[i]
	me := port.Addr()

	info, err := lc.Stat(node, g.inFile)
	if err != nil {
		return fmt.Errorf("merge reader %d: stat input: %w", i, err)
	}
	rd := newColReader(lc, node, g.inFile, int64(info.Blocks))
	defer rd.stop()
	var cur, key []byte
	readNext := func() (err error) {
		if cur, key, err = rd.nextKeyed(g.keyBytes); err != nil {
			return fmt.Errorf("merge reader %d: %w", i, err)
		}
		return nil
	}
	atEOF := func() bool { return cur == nil }
	send := func(to msg.Addr, body any) {
		_ = network.Send(p, node, to, &msg.Message{From: me, Body: body, Size: mergeWireSize(body)})
	}
	// pass hands the token on: m is the group's one token message, *tp its
	// body, which this reader owns until the send.
	pass := func(to msg.Addr, m *msg.Message, tp *mergeToken, next mergeToken) {
		*tp = next
		m.From, m.Size = me, mergeWireSize(tp)
		_ = network.Send(p, node, to, m)
	}
	// emit ships the current record in its own envelope: one allocation,
	// which the writer keeps.
	emit := func(seq int64) {
		e := &recordEnvelope{r: mergeRecord{Seq: seq, Raw: cur}}
		e.m = msg.Message{From: me, Body: &e.r, Size: mergeWireSize(&e.r)}
		_ = network.Send(p, node, g.writerFor(seq), &e.m)
	}
	finishAll := func(totalRecords int64) {
		// DONE: stop every other reader and tell the writers the total.
		for j, rp := range g.readerPorts {
			if j != i {
				send(rp.Addr(), mergeStop{})
			}
		}
		for _, wp := range g.writerPorts {
			send(wp.Addr(), mergeFinish{Total: totalRecords})
		}
	}

	if err := readNext(); err != nil {
		return err
	}
	for {
		m, ok := port.Recv(p)
		if !ok {
			return nil
		}
		switch tp := m.Body.(type) {
		case mergeStop:
			return nil
		case *mergeToken:
			// The sender is done with the token; read it from a local
			// copy, since pass rewrites it.
			tok := *tp
			switch {
			case tok.Start:
				if atEOF() {
					pass(g.otherFirst(i), m, tp, mergeToken{End: true, Seq: 0, Orig: me})
				} else {
					pass(g.otherFirst(i), m, tp, mergeToken{Key: key, Orig: me, Seq: 0})
				}
			case tok.End:
				if atEOF() {
					// Both inputs exhausted: tok.Seq is the total
					// number of records written.
					finishAll(tok.Seq)
					return nil
				}
				pass(g.ringNext(i), m, tp, mergeToken{End: true, Seq: tok.Seq + 1, Orig: tok.Orig})
				emit(tok.Seq)
				if err := readNext(); err != nil {
					return err
				}
			default:
				if atEOF() {
					// My input file is exhausted at this point of the
					// ring traversal; drain the other file.
					pass(tok.Orig, m, tp, mergeToken{End: true, Seq: tok.Seq, Orig: me})
					continue
				}
				if bytes.Compare(key, tok.Key) <= 0 {
					pass(g.ringNext(i), m, tp, mergeToken{Key: tok.Key, Orig: tok.Orig, Seq: tok.Seq + 1})
					emit(tok.Seq)
					if err := readNext(); err != nil {
						return err
					}
				} else {
					pass(tok.Orig, m, tp, mergeToken{Key: key, Orig: me, Seq: tok.Seq})
				}
			}
		default:
			return fmt.Errorf("merge reader %d: unexpected message %T", i, m.Body)
		}
	}
}

// runWriter consumes this destination column's records (sequence numbers
// congruent to i mod t), reassembling order with a small reorder buffer,
// and appends them as local blocks of the output file.
func (g *mergeGroup) runWriter(p sim.Proc, network *msg.Network, node msg.NodeID, i int) error {
	t := int64(len(g.nodes))
	lc := lfs.NewClient(p, network, node, fmt.Sprintf("mg%d.p%d.g%d.wc%d", g.seq, g.pass, g.group, i))
	defer lc.C.Close()
	port := g.writerPorts[i]
	// Intermediate pass files are node-local scratch: create the local
	// column here. The final pass writes into the Bridge-created
	// destination, which already exists on every node.
	if err := lc.Create(node, g.outFile); err != nil && !errors.Is(err, efs.ErrExists) {
		return fmt.Errorf("merge writer %d: creating output: %w", i, err)
	}

	var (
		pending  = make(map[int64][]byte)
		nextSeq  = int64(i)
		out      = newColWriter(lc, node, g.outFile)
		expected = int64(-1)
	)
	drain := func() error {
		for {
			raw, ok := pending[nextSeq]
			if !ok {
				return nil
			}
			delete(pending, nextSeq)
			// Refresh the Bridge header so the destination block
			// carries its own global block number. The record is this
			// writer's own, so the header is rewritten in place.
			h, payload, err := core.DecodeBlock(raw)
			if err != nil {
				return fmt.Errorf("merge writer %d: decode seq %d: %w", i, nextSeq, err)
			}
			h.GlobalBlock = nextSeq
			h.P = uint16(len(g.nodes))
			core.PutHeader(raw, h, len(payload))
			if err := out.put(raw[:core.HeaderBytes+len(payload)]); err != nil {
				return fmt.Errorf("merge writer %d: %w", i, err)
			}
			nextSeq += t
		}
	}
	for {
		if expected >= 0 && int64(out.at) == expected {
			if err := out.flush(); err != nil {
				return fmt.Errorf("merge writer %d: %w", i, err)
			}
			return nil
		}
		m, ok := port.Recv(p)
		if !ok {
			return nil
		}
		switch b := m.Body.(type) {
		case *mergeRecord:
			pending[b.Seq] = b.Raw
			if err := drain(); err != nil {
				return err
			}
		case mergeFinish:
			// This column's share of b.Total records dealt round-robin.
			expected = (b.Total + t - 1 - int64(i)) / t
		case mergeStop:
			return nil
		default:
			return fmt.Errorf("merge writer %d: unexpected message %T", i, m.Body)
		}
	}
}
