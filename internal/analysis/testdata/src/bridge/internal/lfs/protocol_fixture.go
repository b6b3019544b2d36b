// Package lfs is a fixture standing in for the real LFS wire protocol:
// its import path ends in internal/lfs, so the protocolshape analyzer
// applies. This file is one protocol universe; agent_fixture.go is a
// second, independent one.
package lfs

type (
	CreateReq  struct{ FileID uint32 }
	CreateResp struct{ Err string }

	ReadReq  struct{ Block uint32 }
	ReadResp struct {
		Data []byte
		Err  string
	}

	WriteReq struct {
		Block uint32
		Data  []byte
	}
	WriteResp struct{ Err string }

	// An orphan request: no DeleteResp anywhere.
	DeleteReq struct{ FileID uint32 } // want `request type DeleteReq has no matching DeleteResp`

	// An orphan reply: no StatReq anywhere.
	StatResp struct{ Err string } // want `reply type StatResp has no matching StatReq`

	PingReq  struct{}
	PingResp struct{ Err string }
)

// Near-exhaustive dispatch: 4 of this file's 5 Req kinds. The missing
// case falls into the default arm and misbehaves quietly.
func reqKind(body any) string {
	switch body.(type) { // want `type switch covers 4 of 5 Req kinds; missing PingReq`
	case CreateReq:
		return "create"
	case ReadReq:
		return "read"
	case WriteReq:
		return "write"
	case DeleteReq:
		return "delete"
	}
	return "unknown"
}

// Near-exhaustive over replies, too.
func respErrText(body any) string {
	switch r := body.(type) { // want `type switch covers 4 of 5 Resp kinds; missing StatResp`
	case CreateResp:
		return r.Err
	case ReadResp:
		return r.Err
	case WriteResp:
		return r.Err
	case PingResp:
		return r.Err
	}
	return ""
}

// A deliberately narrow helper is exempt: covering 2 of 5 kinds is a
// selection, not a stale dispatcher.
func isWriteish(body any) bool {
	switch body.(type) {
	case WriteReq, DeleteReq:
		return true
	}
	return false
}

// A split dispatcher verifies through the call union: kindA's own 3 kinds
// plus callee kindB's 2 make the universe whole.
func kindA(body any) string {
	switch body.(type) {
	case CreateReq:
		return "create"
	case ReadReq:
		return "read"
	case WriteReq:
		return "write"
	}
	return kindB(body)
}

func kindB(body any) string {
	switch body.(type) {
	case DeleteReq:
		return "delete"
	case PingReq:
		return "ping"
	}
	return "unknown"
}

// Dedup replay must assert the handler's own reply kind: asserting a
// different kind replays the wrong reply (PR 3's bug class).
func replay(dedup map[uint64]any, key uint64, body any) any {
	switch body.(type) {
	case WriteReq:
		if r, ok := dedup[key].(ReadResp); ok { // want `type assertion to ReadResp inside the WriteReq handler`
			return r
		}
	case ReadReq:
		if r, ok := dedup[key].(ReadResp); ok {
			return r
		}
	}
	return nil
}
