package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
)

// TestWireSizesPinned pins what the bandwidth model charges for
// representative Bridge bodies — zero values, a 3-byte name, a 960-byte
// payload, a 3-block vector, a failed status with a detail and an unknown
// body — so that moving the prices around the code cannot re-price a message
// by accident. A deliberate re-pricing edits this table and says why.
func TestWireSizesPinned(t *testing.T) {
	blk := bytes.Repeat([]byte{1}, PayloadBytes)
	three := [][]byte{blk, blk, blk}
	item := ScatterItem{Name: "abc", BlockNum: 1, Write: true, Data: blk}
	failed := msg.Failed(codeNotFound, "bridge: file not found (abc)")
	problems := efs.CheckReport{Problems: []string{"ab", "cde"}}
	for _, tc := range []struct {
		name string
		body any
		want int
	}{
		{"SeqReadResp zero", SeqReadResp{}, 16},
		{"SeqReadResp payload", SeqReadResp{Data: blk}, 976},
		{"RandReadResp payload", RandReadResp{Data: blk}, 976},
		{"SeqWriteReq", SeqWriteReq{Name: "abc", Data: blk, OpID: 9}, 979},
		{"RandWriteReq", RandWriteReq{Name: "abc", BlockNum: 4, Data: blk, OpID: 9}, 987},
		{"SeqReadNReq", SeqReadNReq{Name: "abc", Max: 32}, 27},
		{"SeqReadNResp vector", SeqReadNResp{Blocks: three}, 2920},
		{"RandReadNReq", RandReadNReq{Name: "abc", Count: 3}, 35},
		{"RandReadNResp vector", RandReadNResp{Blocks: three}, 2920},
		{"RandWriteNReq vector", RandWriteNReq{Name: "abc", Blocks: three}, 2939},
		{"RandWriteNResp", RandWriteNResp{Written: 3}, 16},
		{"ScatterReq zero", ScatterReq{}, 16},
		{"ScatterReq vector", ScatterReq{Items: []ScatterItem{item, item, item}, OpID: 9}, 2977},
		{"ScatterResp zero", ScatterResp{}, 16},
		{"ScatterResp failed item", ScatterResp{Results: []ScatterResult{{Data: blk}, {Status: failed}}}, 1020},
		{"ScatterResp failed", ScatterResp{Status: failed}, 16},
		{"WorkerData", WorkerData{Data: blk}, 984},
		{"WorkerBlock", WorkerBlock{Data: blk}, 984},
		{"WorkerPoke", WorkerPoke{JobID: 1}, 24},
		{"CreateReq", CreateReq{Name: "abc", Subset: []int{0, 1}}, 43},
		{"CreateResp", CreateResp{Meta: Meta{Name: "abc"}}, 64},
		{"OpenReq", OpenReq{Name: "abc"}, 11},
		{"OpenResp failed", OpenResp{Status: failed}, 64},
		{"StatResp", StatResp{}, 64},
		{"ReleaseResp", ReleaseResp{}, 64},
		{"RenameReq", RenameReq{Name: "abc", NewName: "de"}, 29},
		{"RenameResp", RenameResp{}, 64},
		{"FlushReq", FlushReq{Name: "abc"}, 19},
		{"ReleaseReq", ReleaseReq{Name: "abc"}, 19},
		{"ParallelOpenReq", ParallelOpenReq{Name: "abc", Workers: make([]msg.Addr, 2)}, 35},
		{"GetInfoResp", GetInfoResp{Info: Info{P: 4}}, 64},
		{"FsckResp", FsckResp{Report: problems}, 29},
		{"ScrubResp", ScrubResp{Report: efs.ScrubReport{Errors: make([]efs.ScrubError, 2)}}, 48},
		{"RecoveryResp", RecoveryResp{Report: lfs.RecoveryReport{Fsck: problems}}, 69},
		// The flat rows the codec follow-up re-prices: a name, a list or a
		// detail that the price does not see.
		{"StatReq", StatReq{Name: "abc"}, 24},
		{"DeleteReq", DeleteReq{Name: "abc"}, 24},
		{"SeqReadReq", SeqReadReq{Name: "abc"}, 24},
		{"ListResp", ListResp{Names: []string{"abc", "de"}}, 24},
		{"HealthResp", HealthResp{States: make([]NodeHealth, 3)}, 24},
		{"SeqWriteResp failed", SeqWriteResp{Status: failed}, 24},
		{"DeleteResp", DeleteResp{Freed: 3}, 24},
		{"CloseJobReq", CloseJobReq{JobID: 1}, 24},
		{"ListReq", ListReq{}, 24},
		{"bare status", failed, 24},
		{"unknown body", struct{ X int }{7}, 24},
	} {
		if got := WireSize(tc.body); got != tc.want {
			t.Errorf("WireSize(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestEveryBodyDeclared walks the file that declares the Bridge protocol's bodies and fails on any
// …Req or …Resp type that has no table entry: such a body would be priced at
// the default, answered as an unknown request, and refused by the TCP
// transport, whose registry is read from the tables.
func TestEveryBodyDeclared(t *testing.T) {
	inTable := map[string]bool{}
	for _, b := range Bodies() {
		inTable[reflect.TypeOf(b).Name()] = true
	}
	names := declaredBodies(t, "protocol.go")
	if len(names) < 50 {
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
