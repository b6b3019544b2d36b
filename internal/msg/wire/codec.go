package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

// ErrNoEncoding is wrapped by the error of an Append whose body has no
// encoding: a type the codec does not declare, or a func.
var ErrNoEncoding = errors.New("wire: no encoding")

// Codec encodes the bodies of one protocol table, by reflection, in the
// format of the package comment. A body is its index in the table, then its
// exported fields in declaration order:
//   - a pointer is a presence byte, then what it points to;
//   - an interface field (lfs.TreeReq.Op) holds a body of the same table and
//     is encoded as a body is, index first;
//   - a func (lfs.SpawnReq.Fn) has no encoding: Append refuses it.
//
// The index is a uvarint, 0 for a nil body and i+1 for the table's body i.
// Bodies nest at most maxNesting deep. A decoded body owns its memory:
// nothing in it aliases the input.
type Codec struct {
	bodies []reflect.Type
	index  map[reflect.Type]int
	min    map[reflect.Type]int // the fewest bytes a value of each type encodes to
}

// maxNesting bounds the bodies one holds through interfaces, so that a
// decoder's depth is not the input's to choose.
const maxNesting = 8

// NewCodec builds the codec of a table: a zero value of each body, in table
// order. A type declared twice keeps its first index. It panics on a body
// that holds a map, a float, a channel, an unexported field, a non-empty
// interface or a slice of empty structs: each is a protocol's bug, found
// when its table is built.
func NewCodec(bodies []any) *Codec {
	c := &Codec{index: map[reflect.Type]int{}, min: map[reflect.Type]int{}}
	for _, b := range bodies {
		t := reflect.TypeOf(b)
		if _, dup := c.index[t]; dup {
			continue
		}
		c.index[t] = len(c.bodies)
		c.bodies = append(c.bodies, t)
		c.minSize(t)
	}
	return c
}

// minSize checks t and returns the fewest bytes a value of it encodes to.
func (c *Codec) minSize(t reflect.Type) int {
	if n, ok := c.min[t]; ok {
		return n
	}
	c.min[t] = 1 // a type that holds itself does so through a pointer or a slice
	n := 1
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Func,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	case reflect.Pointer:
		c.minSize(t.Elem())
	case reflect.Slice:
		if c.minSize(t.Elem()) == 0 {
			panic(fmt.Sprintf("wire: %v: a count of values that encode to nothing bounds nothing", t))
		}
	case reflect.Array:
		n = t.Len() * c.minSize(t.Elem())
	case reflect.Interface:
		if t.NumMethod() != 0 {
			panic(fmt.Sprintf("wire: %v: only an empty interface holds a body", t))
		}
	case reflect.Struct:
		n = 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("wire: %v.%s is unexported", t, f.Name))
			}
			n += c.minSize(f.Type)
		}
	default:
		panic(fmt.Sprintf("wire: %v has no encoding", t))
	}
	c.min[t] = n
	return n
}

// Bodies returns a zero value of every body the codec declares, in index
// order.
func (c *Codec) Bodies() []any {
	out := make([]any, len(c.bodies))
	for i, t := range c.bodies {
		out[i] = reflect.Zero(t).Interface()
	}
	return out
}

// Append appends body's encoding to b.
func (c *Codec) Append(b []byte, body any) ([]byte, error) {
	return c.appendBody(b, reflect.ValueOf(body), 0)
}

func (c *Codec) appendBody(b []byte, v reflect.Value, depth int) ([]byte, error) {
	if !v.IsValid() {
		return append(b, 0), nil
	}
	i, ok := c.index[v.Type()]
	if !ok {
		return b, fmt.Errorf("%w: %v is not a body of this table", ErrNoEncoding, v.Type())
	}
	if depth == maxNesting {
		return b, fmt.Errorf("%w: bodies nested more than %d deep", ErrNoEncoding, maxNesting)
	}
	return c.appendValue(binary.AppendUvarint(b, uint64(i)+1), v, depth+1)
}

func (c *Codec) appendValue(b []byte, v reflect.Value, depth int) ([]byte, error) {
	var err error
	switch v.Kind() {
	case reflect.Bool:
		b = AppendBool(b, v.Bool())
	case reflect.Uint8:
		b = append(b, byte(v.Uint()))
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b = binary.AppendUvarint(b, v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b = binary.AppendVarint(b, v.Int())
	case reflect.String:
		b = AppendString(b, v.String())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return AppendBytes(b, v.Bytes()), nil
		}
		b = binary.AppendUvarint(b, uint64(v.Len()))
		for i := 0; i < v.Len() && err == nil; i++ {
			b, err = c.appendValue(b, v.Index(i), depth)
		}
	case reflect.Array:
		for i := 0; i < v.Len() && err == nil; i++ {
			b, err = c.appendValue(b, v.Index(i), depth)
		}
	case reflect.Pointer:
		b = AppendBool(b, !v.IsNil())
		if !v.IsNil() {
			b, err = c.appendValue(b, v.Elem(), depth)
		}
	case reflect.Interface:
		b, err = c.appendBody(b, v.Elem(), depth)
	case reflect.Struct:
		for i := 0; i < v.NumField() && err == nil; i++ {
			b, err = c.appendValue(b, v.Field(i), depth)
		}
	default: // a func: minSize let nothing else through
		err = fmt.Errorf("%w: %v is a func", ErrNoEncoding, v.Type())
	}
	return b, err
}

// Decode decodes one body, which must fill data exactly.
func (c *Codec) Decode(data []byte) (any, error) {
	d := NewDecoder(data, nil)
	body := c.read(&d, 0)
	return body, d.Finish()
}

// read reads one body from d; nil on a failure, which d records.
func (c *Codec) read(d *Decoder, depth int) any {
	i := d.Uvarint(uint64(len(c.bodies)))
	if i == 0 || d.err != nil {
		return nil
	}
	if depth == maxNesting {
		d.Fail("bodies nested too deep")
		return nil
	}
	v := reflect.New(c.bodies[i-1]).Elem()
	if c.readValue(d, v, depth+1); d.err != nil {
		return nil
	}
	return v.Interface()
}

// readValue decodes into v, which holds its type's zero value.
func (c *Codec) readValue(d *Decoder, v reflect.Value, depth int) {
	t := v.Type()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(d.Flag())
	case reflect.Uint8:
		v.SetUint(uint64(d.U8()))
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(d.Uvarint(^uint64(0) >> (64 - t.Bits())))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if n := d.Varint(); v.OverflowInt(n) {
			d.Fail("integer out of range")
		} else {
			v.SetInt(n)
		}
	case reflect.String:
		v.SetString(d.Str())
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			if b := d.Bytes(); b != nil {
				v.SetBytes(bytes.Clone(b))
			}
			return
		}
		n := d.Count(c.min[t.Elem()])
		if n == 0 {
			return
		}
		v.Set(reflect.MakeSlice(t, n, n))
		for i := 0; i < n && d.err == nil; i++ {
			c.readValue(d, v.Index(i), depth)
		}
	case reflect.Array:
		for i := 0; i < v.Len() && d.err == nil; i++ {
			c.readValue(d, v.Index(i), depth)
		}
	case reflect.Pointer:
		if d.Flag() {
			p := reflect.New(t.Elem())
			c.readValue(d, p.Elem(), depth)
			v.Set(p)
		}
	case reflect.Interface:
		if body := c.read(d, depth); body != nil {
			v.Set(reflect.ValueOf(body))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField() && d.err == nil; i++ {
			c.readValue(d, v.Field(i), depth)
		}
	default:
		d.Fail(fmt.Sprintf("%v is a func", t))
	}
}
