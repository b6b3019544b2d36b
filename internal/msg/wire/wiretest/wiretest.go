// Package wiretest checks a protocol's codec: every body it declares
// round-trips, re-encodes to its input and owns its memory, and nothing but
// a whole encoding decodes.
package wiretest

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"bridge/internal/msg/wire"
)

// Sample returns a deterministic filled body of type t: every string 8
// bytes, every []byte 1 KiB, every other slice one element, every pointer
// set, every number 1 and every boolean true. An interface holds the sample
// of the codec's first body that holds no interface; a func stays nil.
func Sample(c *wire.Codec, t reflect.Type) any {
	v := reflect.New(t).Elem()
	fill(c, v)
	return v.Interface()
}

func fill(c *wire.Codec, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.String:
		v.SetString(strings.Repeat("s", 8))
	case reflect.Slice:
		n := 1
		if v.Type().Elem().Kind() == reflect.Uint8 {
			n = 1024
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(c, v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(c, v.Index(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(c, v.Elem())
	case reflect.Interface:
		for _, b := range c.Bodies() {
			if t := reflect.TypeOf(b); !holds(t, reflect.Interface, map[reflect.Type]bool{}) {
				v.Set(reflect.ValueOf(Sample(c, t)))
				return
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(c, v.Field(i))
		}
	}
}

// holds reports whether a value of t can hold a value of kind k.
func holds(t reflect.Type, k reflect.Kind, seen map[reflect.Type]bool) bool {
	if t.Kind() == k {
		return true
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return holds(t.Elem(), k, seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holds(t.Field(i).Type, k, seen) {
				return true
			}
		}
	}
	return false
}

// RoundTrip checks every body of c twice, as its zero value and as its
// Sample: the encoding decodes to a body reflect.DeepEqual to it, which
// re-encodes to the same bytes and keeps its value when the input is
// overwritten; every proper prefix of the encoding, and the encoding with
// a byte after it, is refused. A body that holds a func must be refused by
// Append instead.
func RoundTrip(t *testing.T, c *wire.Codec) {
	t.Helper()
	for _, zero := range c.Bodies() {
		typ := reflect.TypeOf(zero)
		for _, body := range []any{zero, Sample(c, typ)} {
			enc, err := c.Append(nil, body)
			if holds(typ, reflect.Func, map[reflect.Type]bool{}) {
				if !errors.Is(err, wire.ErrNoEncoding) {
					t.Errorf("%v holds a func, and Append gave %v, want wire.ErrNoEncoding", typ, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%v: Append: %v", typ, err)
				continue
			}
			in := bytes.Clone(enc)
			got, err := c.Decode(in)
			if err != nil || !reflect.DeepEqual(got, body) {
				t.Errorf("%v: decoded %+v, %v; encoded %+v", typ, got, err, body)
				continue
			}
			if again, err := c.Append(nil, got); err != nil || !bytes.Equal(again, enc) {
				t.Errorf("%v: re-encoded to % x, %v; want % x", typ, again, err, enc)
			}
			for i := range in {
				in[i] = 0xa5
			}
			if !reflect.DeepEqual(got, body) {
				t.Errorf("%v: the decoded body changed with its input: it aliases it", typ)
			}
			for n := 0; n < len(enc); n++ {
				if _, err := c.Decode(enc[:n]); err == nil {
					t.Errorf("%v: the first %d of its %d bytes decoded", typ, n, len(enc))
				}
			}
			if _, err := c.Decode(append(bytes.Clone(enc), 0)); err == nil {
				t.Errorf("%v: decoded with a byte after its encoding", typ)
			}
		}
	}
}

// Fuzz runs a fuzz target over c's decoder, seeded with the encodings
// RoundTrip checks: any input must decode without panicking, and whatever
// decodes must re-encode to its input.
func Fuzz(f *testing.F, c *wire.Codec) {
	for _, zero := range c.Bodies() {
		for _, body := range []any{zero, Sample(c, reflect.TypeOf(zero))} {
			if enc, err := c.Append(nil, body); err == nil {
				f.Add(enc)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := c.Decode(data)
		if err != nil {
			return
		}
		if enc, err := c.Append(nil, body); err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("% x decoded to %+v, which re-encodes to % x, %v", data, body, enc, err)
		}
	})
}
