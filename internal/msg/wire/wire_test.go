package wire_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"bridge/internal/msg/wire"
	"bridge/internal/msg/wire/wiretest"
)

type (
	leaf struct {
		Small int8
		Mid   uint16
		Flag  bool
		Kind  uint8
		Name  string
		Data  []byte
		Head  [4]byte
	}
	node struct {
		Leaves []leaf
		Next   *leaf
		Op     any
		Neg    int64
	}
	withFunc struct{ Fn func() }
)

var codec = wire.NewCodec([]any{leaf{}, node{}, withFunc{}, &leaf{}})

func TestCodecRoundTrip(t *testing.T) { wiretest.RoundTrip(t, codec) }

func FuzzCodec(f *testing.F) { wiretest.Fuzz(f, codec) }

// The layout is the package comment's: index, then the fields in order.
func TestCodecLayout(t *testing.T) {
	got, err := codec.Append(nil, leaf{Small: -1, Mid: 300, Flag: true, Kind: 200, Name: "ab", Data: []byte{9}, Head: [4]byte{1, 2, 3, 4}})
	want := []byte{1, 1, 0xac, 0x02, 1, 200, 2, 'a', 'b', 1, 9, 1, 2, 3, 4}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("leaf encodes to % x, %v; want % x", got, err, want)
	}
	got, _ = codec.Append(nil, node{Op: leaf{}})
	if want := []byte{2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}; !bytes.Equal(got, want) {
		t.Fatalf("node encodes to % x; want % x", got, want)
	}
	if got, _ := codec.Append(nil, nil); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("a nil body encodes to % x; want 00", got)
	}
}

func TestCodecRefuses(t *testing.T) {
	for _, body := range []any{withFunc{}, "a string", node{Op: 7}} {
		if _, err := codec.Append(nil, body); !errors.Is(err, wire.ErrNoEncoding) {
			t.Errorf("Append(%T) = %v, want wire.ErrNoEncoding", body, err)
		}
	}
	deep := any(leaf{})
	for i := 0; i < 8; i++ {
		deep = node{Op: deep}
	}
	if _, err := codec.Append(nil, deep); !errors.Is(err, wire.ErrNoEncoding) {
		t.Errorf("bodies nested 9 deep: %v, want wire.ErrNoEncoding", err)
	}
	zero, _ := codec.Append(nil, leaf{})
	for _, tc := range []struct {
		what string
		data []byte
	}{
		{"empty", nil},
		{"index past the table", []byte{5}},
		{"overlong index", []byte{0x81, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"overlong varint", append([]byte{1, 0x80, 0x00}, zero[2:]...)},
		{"int8 out of range", append([]byte{1, 0x80, 0x02}, zero[2:]...)},
		{"uint16 out of range", append([]byte{1, 0, 0x80, 0x80, 0x04}, zero[3:]...)},
		{"boolean 2", append([]byte{1, 0, 0, 2}, zero[4:]...)},
		{"length past the end", append([]byte{1, 0, 0, 0, 0, 9}, zero[6:]...)},
		{"count past the end", []byte{2, 0xff, 0x01, 0, 0, 0}},
		{"pointer flag 2", []byte{2, 0, 2, 0, 0}},
		{"a func", []byte{3}},
		{"truncated", zero[:len(zero)-1]},
		{"trailing byte", append(bytes.Clone(zero), 0)},
		{"nested too deep", append(bytes.Repeat([]byte{2, 0, 0}, 9), 0, 0)},
	} {
		if _, err := codec.Decode(tc.data); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wire.ErrCorrupt", tc.what, err)
		}
	}
}

// The sentinel a decoder wraps is its maker's; the first failure sticks.
func TestDecoderFailureSticks(t *testing.T) {
	mine := errors.New("my record")
	d := wire.NewDecoder([]byte{0x80, 0x00, 1, 1}, mine)
	if d.U64() != 0 || d.Flag() || d.Str() != "" || d.Num() != 0 {
		t.Fatal("a read after a failure returned a value")
	}
	if err := d.Finish(); !errors.Is(err, mine) || !strings.Contains(err.Error(), "varint") {
		t.Fatalf("err = %v, want the first failure, wrapping the decoder's sentinel", err)
	}
	d = wire.NewDecoder([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, nil)
	if n := d.Count(1); n != 0 || !errors.Is(d.Finish(), wire.ErrCorrupt) {
		t.Fatalf("a count of 2^32-1 in no bytes: %d, %v", n, d.Finish())
	}
	d = wire.NewDecoder([]byte{0x80, 0x80, 0x04}, nil)
	if d.Uvarint(math.MaxUint16); d.Finish() == nil {
		t.Fatal("65536 read as a uint16: no range failure")
	}
}
