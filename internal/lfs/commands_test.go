package lfs

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"bridge/internal/efs"
	"bridge/internal/msg"
)

// TestWireSizesPinned pins what the bandwidth model charges for
// representative LFS bodies — zero values, a 960-byte block, a 3-block
// vector, each write also as a header beside its payload, a failed status
// with a detail and an unknown body — so that moving the prices around the
// code cannot re-price a message by accident.
func TestWireSizesPinned(t *testing.T) {
	blk := bytes.Repeat([]byte{1}, efs.DataBytes-40)
	// A server write: the 40-byte Bridge header beside its 920-byte payload
	// is priced as the joined block it replaced.
	head, pay := Head{Len: HeadBytes}, blk[:len(blk)-HeadBytes]
	failed := msg.Failed(CodeNotFound, "efs: file not found")
	problems := efs.CheckReport{Problems: []string{"ab", "cde"}}
	for _, tc := range []struct {
		name string
		body any
		want int
	}{
		{"ReadReq", ReadReq{FileID: 1, BlockNum: 2, Hint: -1}, 16},
		{"ReadResp zero", ReadResp{}, 12},
		{"ReadResp payload", ReadResp{Data: blk, Addr: 7}, 972},
		{"ReadResp failed", ReadResp{Status: failed}, 12},
		{"WriteReq payload", WriteReq{FileID: 1, Data: blk, OpID: 9}, 976},
		{"WriteReq header beside payload", WriteReq{FileID: 1, Head: head, Data: pay, OpID: 9}, 976},
		{"WriteResp", WriteResp{Addr: 7}, 12},
		{"ReadVecReq vector", ReadVecReq{FileID: 1, Blocks: []uint32{1, 2, 3}}, 28},
		{"ReadVecResp vector", ReadVecResp{Blocks: []VecRead{{Data: blk}, {Data: blk}, {Data: blk, Status: failed}}}, 2912},
		{"WriteVecReq zero", WriteVecReq{}, 24},
		{"WriteVecReq vector", WriteVecReq{Blocks: []VecWrite{{Data: blk}, {Data: blk}, {Data: blk}}, OpID: 9}, 2928},
		{"WriteVecReq headers beside payloads", WriteVecReq{Blocks: []VecWrite{{Head: head, Data: pay}, {Head: head, Data: pay}, {Head: head, Data: pay}}, OpID: 9}, 2928},
		{"WriteVecResp vector", WriteVecResp{Blocks: make([]VecWritten, 3)}, 32},
		{"CreateReq", CreateReq{FileID: 1}, 8},
		{"DeleteReq", DeleteReq{FileID: 1, Fast: true}, 8},
		{"StatReq", StatReq{FileID: 1}, 8},
		{"SyncReq", SyncReq{}, 8},
		{"CheckReq", CheckReq{Repair: true}, 8},
		{"UsageReq", UsageReq{}, 8},
		{"PingReq", PingReq{}, 8},
		{"ScrubReq", ScrubReq{Full: true}, 8},
		{"RecoveryReq", RecoveryReq{}, 8},
		{"RecoveryResp", RecoveryResp{Report: RecoveryReport{Fsck: problems}}, 69},
		{"ScrubResp", ScrubResp{Report: efs.ScrubReport{Errors: make([]efs.ScrubError, 2)}}, 40},
		{"UsageResp", UsageResp{TotalBlocks: 9}, 16},
		{"CreateResp failed", CreateResp{Status: failed}, 8},
		{"SyncResp", SyncResp{}, 8},
		{"PingResp", PingResp{}, 8},
		{"CheckResp", CheckResp{Report: problems, Fixes: 1}, 21},
		{"DeleteResp", DeleteResp{Freed: 3}, 12},
		{"StatResp", StatResp{}, 24},
		{"bare status", failed, 8},
		{"unknown body", struct{ X int }{7}, 16},
	} {
		if got := WireSize(tc.body); got != tc.want {
			t.Errorf("WireSize(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestEveryBodyDeclared walks the files that declare the LFS and node-agent
// protocols' bodies and fails on any
// …Req or …Resp type that has no table entry: such a body would be priced at
// the default, answered as an unknown request, and refused by the TCP
// transport, whose registry is read from the tables.
func TestEveryBodyDeclared(t *testing.T) {
	inTable := map[string]bool{}
	for _, b := range Bodies() {
		inTable[reflect.TypeOf(b).Name()] = true
	}
	names := declaredBodies(t, "protocol.go", "agent.go")
	if len(names) < 30 {
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
