// The replicated log and snapshot format: the record layouts of rop,
// ropRec, Meta/ChainInfo and rsnap, written by hand with package wire's
// primitives and under its rules — one encoding per value, so identical
// states encode to identical bytes and whatever decodes re-encodes to its
// input, and every count checked against the bytes that remain before
// anything is allocated.
//
// A record is a format-version byte followed by the struct's fields in
// declaration order (rop.Item only when set, flagged in the Kind byte).
// Kind fields are one byte, and an optional struct (ChainInfo, a record's
// Meta) is a presence byte first.
//
// A member's decoder allocates only what is new to its directory: a name
// already in it decodes to its dirent's string, a Meta.Name equal to its
// record's Name to that same string, a node list equal to a prefix of the
// server's to that prefix, and a client port to the member's portTab copy.
// Interning shares memory and never changes a value, and a decoded byte
// slice aliases the record: log entries and snapshots are immutable.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bridge/internal/distrib"
	"bridge/internal/msg"
	"bridge/internal/msg/wire"
)

// logFormat is the version byte that opens every log entry and snapshot.
// Version 1 had no rop.Item and a snapshot kept a FIFO of op records, not
// sessions: it is refused, not misread.
const logFormat byte = 2

// itemFlag marks a rop's Kind byte when an Item follows its Op. Only a
// scatter's write items carry one, so every other entry keeps its length.
const itemFlag = 0x80

// LogFormatError reports a replicated log entry or snapshot written in a
// format this build does not read — such as the gob streams of earlier
// builds, whose first byte is a gob length prefix.
type LogFormatError struct {
	Version byte // the record's leading byte
}

func (e *LogFormatError) Error() string {
	return fmt.Sprintf("bridge: replicated log format version %d, this build reads version %d", e.Version, logFormat)
}

// errLogCorrupt is wrapped by every other decode failure.
var errLogCorrupt = errors.New("bridge: corrupt replicated log record")

// ---- encoding ----

func appendAddr(b []byte, a msg.Addr) []byte {
	b = binary.AppendVarint(b, int64(a.Node))
	return wire.AppendString(b, a.Port)
}

func appendMeta(b []byte, m *Meta) []byte {
	b = wire.AppendString(b, m.Name)
	b = binary.AppendUvarint(b, uint64(m.FileID))
	b = binary.AppendUvarint(b, uint64(m.LFSFileID))
	b = append(b, byte(m.Spec.Kind))
	b = binary.AppendVarint(b, int64(m.Spec.P))
	b = binary.AppendVarint(b, int64(m.Spec.Start))
	b = binary.AppendVarint(b, m.Spec.TotalBlocks)
	b = binary.AppendUvarint(b, m.Spec.Seed)
	b = binary.AppendUvarint(b, uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		b = binary.AppendVarint(b, int64(n))
	}
	b = binary.AppendVarint(b, m.Blocks)
	b = wire.AppendBool(b, m.Chain != nil)
	if c := m.Chain; c != nil {
		b = binary.AppendUvarint(b, uint64(c.HeadNode))
		b = binary.AppendUvarint(b, uint64(c.HeadLocal))
		b = binary.AppendUvarint(b, uint64(c.TailNode))
		b = binary.AppendUvarint(b, uint64(c.TailLocal))
		b = binary.AppendUvarint(b, uint64(len(c.LocalCounts)))
		for _, n := range c.LocalCounts {
			b = binary.AppendVarint(b, n)
		}
	}
	return b
}

// appendRopFields appends op without the version byte (a snapshot's
// pending tail shares the snapshot's).
func appendRopFields(b []byte, op *rop) []byte {
	if op.Item == 0 {
		b = append(b, op.Kind)
	} else {
		b = append(b, op.Kind|itemFlag)
	}
	b = appendAddr(b, op.Client)
	b = binary.AppendUvarint(b, op.Op)
	if op.Item != 0 {
		b = binary.AppendUvarint(b, op.Item)
	}
	b = wire.AppendString(b, op.Name)
	b = wire.AppendString(b, op.New)
	b = appendMeta(b, &op.Meta)
	b = binary.AppendUvarint(b, uint64(op.NextID))
	b = binary.AppendVarint(b, op.At)
	b = binary.AppendVarint(b, int64(op.N))
	b = binary.AppendUvarint(b, uint64(len(op.Data)))
	for _, blk := range op.Data {
		b = wire.AppendBytes(b, blk)
	}
	b = binary.AppendVarint(b, op.Blocks)
	b = wire.AppendBool(b, op.EOF)
	return wire.AppendString(b, op.ErrS)
}

func appendRec(b []byte, r *ropRec) []byte {
	b = append(b, r.Kind)
	b = wire.AppendBool(b, r.EOF)
	b = wire.AppendString(b, r.Name)
	b = wire.AppendBool(b, r.Meta != nil)
	if r.Meta != nil {
		b = appendMeta(b, r.Meta)
	}
	b = binary.AppendVarint(b, r.At)
	b = binary.AppendVarint(b, int64(r.N))
	return wire.AppendString(b, r.ErrS)
}

// appendRop appends op's log-entry encoding to b.
func appendRop(b []byte, op *rop) []byte {
	return appendRopFields(append(b, logFormat), op)
}

// appendSnap appends snap's encoding to b. A session's records follow its
// request's id, each as its own id's offset from it.
func appendSnap(b []byte, snap *rsnap) []byte {
	b = append(b, logFormat)
	b = binary.AppendUvarint(b, uint64(snap.NextID))
	b = binary.AppendUvarint(b, uint64(len(snap.Files)))
	for i := range snap.Files {
		f := &snap.Files[i]
		b = appendMeta(b, &f.Meta)
		b = wire.AppendBool(b, f.WBDirty)
		b = wire.AppendString(b, f.Deferred)
	}
	b = binary.AppendUvarint(b, uint64(len(snap.Cursors)))
	for _, c := range snap.Cursors {
		b = appendAddr(b, c.Client)
		b = wire.AppendString(b, c.Name)
		b = binary.AppendVarint(b, c.Pos)
	}
	b = binary.AppendUvarint(b, uint64(len(snap.Sessions)))
	for _, x := range snap.Sessions {
		b = appendAddr(b, x.Client)
		b = binary.AppendUvarint(b, x.Op)
		b = binary.AppendUvarint(b, uint64(len(x.Recs)))
		for i := range x.Recs {
			b = binary.AppendUvarint(b, x.Recs[i].Op-x.Op)
			b = appendRec(b, &x.Recs[i].Rec)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(snap.Pending)))
	for i := range snap.Pending {
		b = appendRopFields(b, &snap.Pending[i])
	}
	return b
}

// ---- decoding ----

// Minimum encoded sizes, the divisors that bound a decoded count by the
// bytes left to hold its elements.
const (
	minMetaBytes = 11
	minRopBytes  = 14 + minMetaBytes
	minRecBytes  = 7
	minSessBytes = 4 // client, op, record count
)

// logDec reads one record with the shared primitives, interning as the
// header says.
type logDec struct {
	wire.Decoder
	ports portTab
	dir   map[string]*dirent // names a decoded one may share; nil shares none
	nodes []msg.NodeID       // the node list a decoded one may share a prefix of
}

// portTab holds one copy of every client port name its owner has decoded,
// so the thousands of op-table keys a few clients leave behind share them.
// Nil interns nothing.
type portTab map[string]string

// portTabCap bounds a portTab; past it the table starts over.
const portTabCap = 1024

// newLogDec checks the version byte.
func newLogDec(data []byte, ports portTab) logDec {
	d := logDec{Decoder: wire.NewDecoder(data, errLogCorrupt), ports: ports}
	switch {
	case len(data) == 0:
		d.Fail("empty record")
	case data[0] != logFormat:
		d.Stop(&LogFormatError{Version: data[0]})
	default:
		d.U8()
	}
	return d
}

// name reads a file name: like when equal to it, else the name of the
// directory entry it keys, else a copy.
func (d *logDec) name(like string) string {
	b := d.Bytes()
	if string(b) == like {
		return like
	}
	if ent, ok := d.dir[string(b)]; ok && ent.meta.Name == string(b) {
		return ent.meta.Name
	}
	return string(b)
}

// nodeList reads n node ids: a prefix of d.nodes, capped, when equal to
// one, else a list of their own.
func (d *logDec) nodeList(n int) []msg.NodeID {
	for i := 0; i < n; i++ {
		id := msg.NodeID(d.Num())
		if i < len(d.nodes) && id == d.nodes[i] {
			continue
		}
		l := make([]msg.NodeID, n)
		copy(l, d.nodes[:i])
		l[i] = id
		for i++; i < n; i++ {
			l[i] = msg.NodeID(d.Num())
		}
		return l
	}
	return d.nodes[:n:n]
}

func (d *logDec) addr() msg.Addr {
	node, b := msg.NodeID(d.Num()), d.Bytes()
	port, ok := d.ports[string(b)]
	if !ok {
		port = string(b)
		if d.ports != nil {
			if len(d.ports) >= portTabCap {
				clear(d.ports)
			}
			d.ports[port] = port
		}
	}
	return msg.Addr{Node: node, Port: port}
}

// meta reads a Meta; like is the name its record already holds.
func (d *logDec) meta(m *Meta, like string) {
	m.Name = d.name(like)
	m.FileID = d.U32()
	m.LFSFileID = d.U32()
	m.Spec.Kind = distrib.Kind(d.U8())
	m.Spec.P = d.Num()
	m.Spec.Start = d.Num()
	m.Spec.TotalBlocks = d.Varint()
	m.Spec.Seed = d.U64()
	if n := d.Count(1); n > 0 {
		m.Nodes = d.nodeList(n)
	}
	m.Blocks = d.Varint()
	if d.Flag() {
		c := &ChainInfo{}
		c.HeadNode = d.U16()
		c.HeadLocal = d.U32()
		c.TailNode = d.U16()
		c.TailLocal = d.U32()
		if n := d.Count(1); n > 0 {
			c.LocalCounts = make([]int64, n)
			for i := range c.LocalCounts {
				c.LocalCounts[i] = d.Varint()
			}
		}
		m.Chain = c
	}
}

// kind checks an operation kind; one outside the twelve would apply as a
// silent no-op here and as something else on a build that knows it.
func (d *logDec) kind(k uint8) uint8 {
	if k < ropCreate || k > ropFixup {
		d.Fail("unknown operation kind")
	}
	return k
}

func (d *logDec) rop(op *rop) {
	k := d.U8()
	op.Kind = d.kind(k &^ itemFlag)
	op.Client = d.addr()
	op.Op = d.U64()
	if k&itemFlag != 0 {
		// Only a write item has one, and a request id is at least 1.
		if op.Item = d.Uvarint(max(op.Op, 1) - 1); op.Item == 0 || op.Kind != ropWrite {
			d.Fail("scatter item out of range")
		}
	}
	op.Name = d.name("")
	op.New = d.name("")
	d.meta(&op.Meta, op.Name)
	op.NextID = d.U32()
	op.At = d.Varint()
	op.N = d.Num()
	if n := d.Count(1); n > 0 {
		op.Data = make([][]byte, n)
		for i := range op.Data {
			op.Data[i] = d.Bytes()
		}
	}
	op.Blocks = d.Varint()
	op.EOF = d.Flag()
	op.ErrS = d.Str()
}

func (d *logDec) rec(r *ropRec) {
	r.Kind = d.kind(d.U8())
	r.EOF = d.Flag()
	r.Name = d.Str()
	if d.Flag() {
		r.Meta = new(Meta)
		d.meta(r.Meta, r.Name)
	}
	r.At = d.Varint()
	r.N = d.Num()
	r.ErrS = d.Str()
}

// session reads one client session; its records' ids ascend from the
// request's.
func (d *logDec) session(x *rsnapSession) {
	x.Client, x.Op = d.addr(), d.U64()
	if n := d.Count(1 + minRecBytes); n > 0 {
		x.Recs = make([]opRec, n)
		for i := range x.Recs {
			r := &x.Recs[i]
			r.Op = x.Op + d.Uvarint(math.MaxUint64-x.Op)
			if i > 0 && r.Op <= x.Recs[i-1].Op {
				d.Fail("session records out of order")
			}
			d.rec(&r.Rec)
		}
	}
}

// decodeRop decodes one log entry's payload, sharing what it can with a
// member's directory and node list (both may be nil).
func decodeRop(data []byte, ports portTab, dir map[string]*dirent, nodes []msg.NodeID) (rop, error) {
	var op rop
	d := newLogDec(data, ports)
	d.dir, d.nodes = dir, nodes
	d.rop(&op)
	return op, d.Finish()
}

// decodeSnap decodes a state-machine snapshot.
func decodeSnap(data []byte, ports portTab) (rsnap, error) {
	var snap rsnap
	d := newLogDec(data, ports)
	snap.NextID = d.U32()
	if n := d.Count(minMetaBytes + 2); n > 0 {
		snap.Files = make([]rsnapFile, n)
		for i := range snap.Files {
			f := &snap.Files[i]
			d.meta(&f.Meta, "")
			f.WBDirty = d.Flag()
			f.Deferred = d.Str()
		}
	}
	if n := d.Count(4); n > 0 {
		snap.Cursors = make([]rsnapCursor, n)
		for i := range snap.Cursors {
			snap.Cursors[i] = rsnapCursor{Client: d.addr(), Name: d.Str(), Pos: d.Varint()}
		}
	}
	if n := d.Count(minSessBytes); n > dedupCap {
		d.Fail("more sessions than dedupCap")
	} else if n > 0 {
		snap.Sessions = make([]rsnapSession, n)
		seen := make(map[msg.Addr]bool, n)
		for i := range snap.Sessions {
			x := &snap.Sessions[i]
			if d.session(x); seen[x.Client] {
				d.Fail("a client with two sessions")
			}
			seen[x.Client] = true
		}
	}
	if n := d.Count(minRopBytes); n > 0 {
		snap.Pending = make([]rop, n)
		for i := range snap.Pending {
			d.rop(&snap.Pending[i])
		}
	}
	return snap, d.Finish()
}
