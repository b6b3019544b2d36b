package raft

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// TestWireSizesPinned pins what the latency model charges for representative
// consensus messages — zero values, a 960-byte payload, a 3-entry append and
// an unknown body — so that moving the prices around the code cannot
// re-price a message by accident.
func TestWireSizesPinned(t *testing.T) {
	blk := bytes.Repeat([]byte{1}, 960)
	three := []Entry{{Data: blk}, {Data: blk}, {Data: blk}}
	for _, tc := range []struct {
		name string
		body any
		want int
	}{
		{"VoteReq", VoteReq{Term: 3}, 40},
		{"VoteResp", VoteResp{Granted: true}, 24},
		{"AppendReq zero", AppendReq{}, 64},
		{"AppendReq entries", AppendReq{Entries: three}, 3016},
		{"AppendReq no-op", AppendReq{Entries: []Entry{{Index: 1}}}, 88},
		{"AppendResp", AppendResp{Ok: true}, 40},
		{"SnapReq payload", SnapReq{Data: blk}, 1008},
		{"SnapResp", SnapResp{}, 32},
		{"unknown body", struct{ X int }{7}, 24},
	} {
		if got := WireSize(tc.body); got != tc.want {
			t.Errorf("WireSize(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestEveryBodyDeclared walks the file that declares the consensus messages and fails on any
// …Req or …Resp type that has no table entry: such a body would be priced at
// the default, answered as an unknown request, and refused by the TCP
// transport, whose registry is read from the tables.
func TestEveryBodyDeclared(t *testing.T) {
	inTable := map[string]bool{}
	for _, b := range Bodies() {
		inTable[reflect.TypeOf(b).Name()] = true
	}
	names := declaredBodies(t, "wire.go")
	if len(names) < 6 {
		t.Fatalf("the walk found only %d protocol bodies: %v", len(names), names)
	}
	for _, name := range names {
		if !inTable[name] {
			t.Errorf("%s is declared but has no table entry", name)
		}
	}
}

// declaredBodies walks files with go/parser and returns every …Req and …Resp
// type they declare.
func declaredBodies(t *testing.T, files ...string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && (strings.HasSuffix(ts.Name.Name, "Req") || strings.HasSuffix(ts.Name.Name, "Resp")) {
				names = append(names, ts.Name.Name)
			}
			return true
		})
	}
	return names
}
