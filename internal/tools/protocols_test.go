package tools

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"bridge/internal/core"
	"bridge/internal/lfs"
	"bridge/internal/msg/wire"
	"bridge/internal/msg/wire/wiretest"
	"bridge/internal/raft"
)

const (
	designPath     = "../../DESIGN.md"
	protocolsBegin = "<!-- BEGIN generated by TestProtocolTablesDoc -->\n"
	protocolsEnd   = "<!-- END generated by TestProtocolTablesDoc -->\n"
)

// TestProtocolTablesDoc holds DESIGN.md's "Protocol tables" drift table to
// the code: for every body of the four protocols, its hand price beside its
// codec encoding's length, for the zero body and for wiretest's filled
// sample. UPDATE_BENCH=1 rewrites the block.
//
// A body sent by reference (the merge's token and record) is listed at a
// pointer to its zero value: a nil one is never sent.
func TestProtocolTablesDoc(t *testing.T) {
	var b strings.Builder
	b.WriteString("| protocol | body | price, zero | encoded, zero | price, sample | encoded, sample |\n|---|---|--:|--:|--:|--:|\n")
	for _, p := range []struct {
		name  string
		codec *wire.Codec
		price func(any) int
	}{
		{"Bridge", wire.NewCodec(core.Bodies()), core.WireSize},
		{"LFS + agent", wire.NewCodec(lfs.Bodies()), lfs.WireSize},
		{"consensus", wire.NewCodec(raft.Bodies()), raft.WireSize},
		{"merge", wire.NewCodec(mergeProtocol.Bodies()), mergeWireSize},
	} {
		for _, zero := range p.codec.Bodies() {
			typ := reflect.TypeOf(zero)
			if typ.Kind() == reflect.Pointer { // a body sent by reference: its zero is a pointer to one
				zero = reflect.New(typ.Elem()).Interface()
			}
			sample := wiretest.Sample(p.codec, typ)
			encoded := func(body any) string {
				enc, err := p.codec.Append(nil, body)
				if err != nil {
					return "refused"
				}
				return fmt.Sprint(len(enc))
			}
			fmt.Fprintf(&b, "| %s | `%T` | %d | %s | %d | %s |\n", p.name, zero, p.price(zero), encoded(zero), p.price(sample), encoded(sample))
		}
	}
	body := b.String()

	raw, err := os.ReadFile(designPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, protocolsBegin), strings.Index(doc, protocolsEnd)
	if i < 0 || j < i {
		t.Fatalf("%s has no %q … %q block", designPath, protocolsBegin, protocolsEnd)
	}
	if old := doc[i+len(protocolsBegin) : j]; old == body {
		return
	}
	if os.Getenv("UPDATE_BENCH") == "" {
		t.Fatalf("%s's protocol drift table is stale; regenerate with UPDATE_BENCH=1 go test ./internal/tools -run TestProtocolTablesDoc", designPath)
	}
	doc = doc[:i+len(protocolsBegin)] + body + doc[j:]
	if err := os.WriteFile(designPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
}
