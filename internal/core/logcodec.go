// The replicated log and snapshot format: one hand-written codec for rop,
// ropRec, Meta/ChainInfo and rsnap.
//
// A record is a format-version byte followed by the struct's fields in
// declaration order (rop.Item only when set, flagged in the Kind byte).
// Unsigned integers are uvarints, signed ones zigzag varints, Kind fields
// and booleans one byte, strings and byte slices a uvarint length then the
// bytes, slices a uvarint count then the elements, an optional struct
// (ChainInfo, a record's Meta) a presence byte first.
// Every value has exactly one encoding — varints must be minimal, booleans 0
// or 1, integers inside their field's range, nothing may follow the last
// field — so identical states encode to identical bytes and whatever decodes
// re-encodes to its input.
// Counts and lengths are checked against the bytes that remain before
// anything is allocated.
//
// A member's decoder allocates only what is new to its directory: a name
// already in it decodes to its dirent's string, a Meta.Name equal to its
// record's Name to that same string, a node list equal to a prefix of the
// server's to that prefix, and a client port to the member's portTab copy.
// Interning shares memory and never changes a value.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"bridge/internal/distrib"
	"bridge/internal/msg"
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

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendAddr(b []byte, a msg.Addr) []byte {
	b = binary.AppendVarint(b, int64(a.Node))
	return appendStr(b, a.Port)
}

func appendMeta(b []byte, m *Meta) []byte {
	b = appendStr(b, m.Name)
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
	b = appendBool(b, m.Chain != nil)
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
	b = appendStr(b, op.Name)
	b = appendStr(b, op.New)
	b = appendMeta(b, &op.Meta)
	b = binary.AppendUvarint(b, uint64(op.NextID))
	b = binary.AppendVarint(b, op.At)
	b = binary.AppendVarint(b, int64(op.N))
	b = binary.AppendUvarint(b, uint64(len(op.Data)))
	for _, blk := range op.Data {
		b = binary.AppendUvarint(b, uint64(len(blk)))
		b = append(b, blk...)
	}
	b = binary.AppendVarint(b, op.Blocks)
	b = appendBool(b, op.EOF)
	return appendStr(b, op.ErrS)
}

func appendRec(b []byte, r *ropRec) []byte {
	b = append(b, r.Kind)
	b = appendBool(b, r.EOF)
	b = appendStr(b, r.Name)
	b = appendBool(b, r.Meta != nil)
	if r.Meta != nil {
		b = appendMeta(b, r.Meta)
	}
	b = binary.AppendVarint(b, r.At)
	b = binary.AppendVarint(b, int64(r.N))
	return appendStr(b, r.ErrS)
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
		b = appendBool(b, f.WBDirty)
		b = appendStr(b, f.Deferred)
	}
	b = binary.AppendUvarint(b, uint64(len(snap.Cursors)))
	for _, c := range snap.Cursors {
		b = appendAddr(b, c.Client)
		b = appendStr(b, c.Name)
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

// logDec reads one record. The first failure sticks: every later read
// returns zero and finish reports it.
type logDec struct {
	b     []byte
	err   error
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
	d := logDec{b: data, ports: ports}
	if len(data) == 0 {
		d.fail("empty record")
	} else if data[0] != logFormat {
		d.err, d.b = &LogFormatError{Version: data[0]}, nil
	} else {
		d.b = data[1:]
	}
	return d
}

func (d *logDec) fail(why string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errLogCorrupt, why)
	}
	d.b = nil
}

func (d *logDec) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("trailing bytes")
	}
	return d.err
}

func (d *logDec) u8() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *logDec) flag() bool {
	v := d.u8()
	if v > 1 {
		d.fail("boolean out of range")
	}
	return v == 1
}

// advance consumes an n-byte varint binary.(U)varint just read; a final
// zero byte past the first means the value had a shorter encoding.
func (d *logDec) advance(n int) bool {
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail("truncated or overlong varint")
		return false
	}
	d.b = d.b[n:]
	return true
}

func (d *logDec) u64() uint64 { return d.uvarint(math.MaxUint64) }
func (d *logDec) u32() uint32 { return uint32(d.uvarint(math.MaxUint32)) }
func (d *logDec) u16() uint16 { return uint16(d.uvarint(math.MaxUint16)) }

func (d *logDec) uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(d.b)
	if !d.advance(n) {
		return 0
	}
	if v > max {
		d.fail("integer out of range")
		return 0
	}
	return v
}

func (d *logDec) varint() int64 {
	v, n := binary.Varint(d.b)
	if !d.advance(n) {
		return 0
	}
	return v
}

func (d *logDec) num() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

// count reads an element count, refusing one the remaining bytes could not
// hold at min bytes an element.
func (d *logDec) count(min int) int {
	n := d.u64()
	if n > uint64(len(d.b)/min) {
		d.fail("count exceeds the record")
		return 0
	}
	return int(n)
}

// bytes aliases the record: log entries and snapshots are immutable.
func (d *logDec) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *logDec) str() string { return string(d.bytes()) }

// name reads a file name: like when equal to it, else the name of the
// directory entry it keys, else a copy.
func (d *logDec) name(like string) string {
	b := d.bytes()
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
		id := msg.NodeID(d.num())
		if i < len(d.nodes) && id == d.nodes[i] {
			continue
		}
		l := make([]msg.NodeID, n)
		copy(l, d.nodes[:i])
		l[i] = id
		for i++; i < n; i++ {
			l[i] = msg.NodeID(d.num())
		}
		return l
	}
	return d.nodes[:n:n]
}

func (d *logDec) addr() msg.Addr {
	node, b := msg.NodeID(d.num()), d.bytes()
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
	m.FileID = d.u32()
	m.LFSFileID = d.u32()
	m.Spec.Kind = distrib.Kind(d.u8())
	m.Spec.P = d.num()
	m.Spec.Start = d.num()
	m.Spec.TotalBlocks = d.varint()
	m.Spec.Seed = d.u64()
	if n := d.count(1); n > 0 {
		m.Nodes = d.nodeList(n)
	}
	m.Blocks = d.varint()
	if d.flag() {
		c := &ChainInfo{}
		c.HeadNode = d.u16()
		c.HeadLocal = d.u32()
		c.TailNode = d.u16()
		c.TailLocal = d.u32()
		if n := d.count(1); n > 0 {
			c.LocalCounts = make([]int64, n)
			for i := range c.LocalCounts {
				c.LocalCounts[i] = d.varint()
			}
		}
		m.Chain = c
	}
}

// kind checks an operation kind; one outside the twelve would apply as a
// silent no-op here and as something else on a build that knows it.
func (d *logDec) kind(k uint8) uint8 {
	if k < ropCreate || k > ropFixup {
		d.fail("unknown operation kind")
	}
	return k
}

func (d *logDec) rop(op *rop) {
	k := d.u8()
	op.Kind = d.kind(k &^ itemFlag)
	op.Client = d.addr()
	op.Op = d.u64()
	if k&itemFlag != 0 {
		// Only a write item has one, and a request id is at least 1.
		if op.Item = d.uvarint(max(op.Op, 1) - 1); op.Item == 0 || op.Kind != ropWrite {
			d.fail("scatter item out of range")
		}
	}
	op.Name = d.name("")
	op.New = d.name("")
	d.meta(&op.Meta, op.Name)
	op.NextID = d.u32()
	op.At = d.varint()
	op.N = d.num()
	if n := d.count(1); n > 0 {
		op.Data = make([][]byte, n)
		for i := range op.Data {
			op.Data[i] = d.bytes()
		}
	}
	op.Blocks = d.varint()
	op.EOF = d.flag()
	op.ErrS = d.str()
}

func (d *logDec) rec(r *ropRec) {
	r.Kind = d.kind(d.u8())
	r.EOF = d.flag()
	r.Name = d.str()
	if d.flag() {
		r.Meta = new(Meta)
		d.meta(r.Meta, r.Name)
	}
	r.At = d.varint()
	r.N = d.num()
	r.ErrS = d.str()
}

// session reads one client session; its records' ids ascend from the
// request's.
func (d *logDec) session(x *rsnapSession) {
	x.Client, x.Op = d.addr(), d.u64()
	if n := d.count(1 + minRecBytes); n > 0 {
		x.Recs = make([]opRec, n)
		for i := range x.Recs {
			r := &x.Recs[i]
			r.Op = x.Op + d.uvarint(math.MaxUint64-x.Op)
			if i > 0 && r.Op <= x.Recs[i-1].Op {
				d.fail("session records out of order")
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
	return op, d.finish()
}

// decodeSnap decodes a state-machine snapshot.
func decodeSnap(data []byte, ports portTab) (rsnap, error) {
	var snap rsnap
	d := newLogDec(data, ports)
	snap.NextID = d.u32()
	if n := d.count(minMetaBytes + 2); n > 0 {
		snap.Files = make([]rsnapFile, n)
		for i := range snap.Files {
			f := &snap.Files[i]
			d.meta(&f.Meta, "")
			f.WBDirty = d.flag()
			f.Deferred = d.str()
		}
	}
	if n := d.count(4); n > 0 {
		snap.Cursors = make([]rsnapCursor, n)
		for i := range snap.Cursors {
			snap.Cursors[i] = rsnapCursor{Client: d.addr(), Name: d.str(), Pos: d.varint()}
		}
	}
	if n := d.count(minSessBytes); n > dedupCap {
		d.fail("more sessions than dedupCap")
	} else if n > 0 {
		snap.Sessions = make([]rsnapSession, n)
		seen := make(map[msg.Addr]bool, n)
		for i := range snap.Sessions {
			x := &snap.Sessions[i]
			if d.session(x); seen[x.Client] {
				d.fail("a client with two sessions")
			}
			seen[x.Client] = true
		}
	}
	if n := d.count(minRopBytes); n > 0 {
		snap.Pending = make([]rop, n)
		for i := range snap.Pending {
			d.rop(&snap.Pending[i])
		}
	}
	return snap, d.finish()
}
