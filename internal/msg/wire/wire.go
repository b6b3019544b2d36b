// Package wire is the repository's one byte format: the primitives the
// replicated log's record layouts are written with (core/logcodec.go), and a
// codec that encodes every protocol body and the Raft store's state with the
// same primitives, by reflection, with no code per type.
//
// Unsigned integers are uvarints, except a uint8, which is one byte; signed
// integers are zigzag varints; booleans are one byte; strings and byte
// slices are a uvarint length, then the bytes; other slices a uvarint count,
// then the elements; arrays their elements, with no count.
// Every value has exactly one encoding: varints must be minimal, booleans 0
// or 1, integers inside their type's range, and nothing may follow the last
// field. So identical values encode to identical bytes, and whatever decodes
// re-encodes to its input. Counts and lengths are checked against the bytes
// that remain before anything is allocated.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is wrapped by every failure of a Decoder made without a
// sentinel of its own.
var ErrCorrupt = errors.New("wire: corrupt encoding")

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s's length, then its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends v's length, then its bytes.
func AppendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// Decoder reads one record. The first failure sticks: every later read
// returns zero and Finish reports it.
type Decoder struct {
	b       []byte
	err     error
	corrupt error
}

// NewDecoder reads data; every failure wraps corrupt, or ErrCorrupt when
// corrupt is nil.
func NewDecoder(data []byte, corrupt error) Decoder {
	if corrupt == nil {
		corrupt = ErrCorrupt
	}
	return Decoder{b: data, corrupt: corrupt}
}

// Fail records a corrupt record, unless a failure is already recorded, and
// drops what is left.
func (d *Decoder) Fail(why string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", d.corrupt, why)
	}
	d.b = nil
}

// Stop records err as the record's failure, unless one is already recorded,
// and drops what is left.
func (d *Decoder) Stop(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Finish reports the record's failure: the first one recorded, or bytes
// left after the last field.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.Fail("trailing bytes")
	}
	return d.err
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	if len(d.b) == 0 {
		d.Fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Flag reads a boolean.
func (d *Decoder) Flag() bool {
	v := d.U8()
	if v > 1 {
		d.Fail("boolean out of range")
	}
	return v == 1
}

// advance consumes an n-byte varint binary.(U)varint just read; a final
// zero byte past the first means the value had a shorter encoding.
func (d *Decoder) advance(n int) bool {
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.Fail("truncated or overlong varint")
		return false
	}
	d.b = d.b[n:]
	return true
}

func (d *Decoder) U64() uint64 { return d.Uvarint(math.MaxUint64) }
func (d *Decoder) U32() uint32 { return uint32(d.Uvarint(math.MaxUint32)) }
func (d *Decoder) U16() uint16 { return uint16(d.Uvarint(math.MaxUint16)) }

// Uvarint reads an unsigned integer no greater than max.
func (d *Decoder) Uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(d.b)
	if !d.advance(n) {
		return 0
	}
	if v > max {
		d.Fail("integer out of range")
		return 0
	}
	return v
}

// Varint reads a signed integer.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b)
	if !d.advance(n) {
		return 0
	}
	return v
}

// Num reads a signed integer that fits an int.
func (d *Decoder) Num() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail("integer out of range")
		return 0
	}
	return int(v)
}

// Count reads an element count, refusing one the remaining bytes could not
// hold at min bytes an element.
func (d *Decoder) Count(min int) int {
	n := d.U64()
	if n > uint64(len(d.b)/min) {
		d.Fail("count exceeds the record")
		return 0
	}
	return int(n)
}

// Bytes reads a length and that many bytes. They alias the input: a caller
// whose input is not immutable copies them.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Str reads a string.
func (d *Decoder) Str() string { return string(d.Bytes()) }
