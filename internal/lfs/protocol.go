// Package lfs wraps an EFS volume in a message-serving process: the middle
// layer of Bridge. One LFS server runs on every node with a disk; it is
// stateless between requests (requests carry hints, replies return block
// addresses to use as the next hint). Each node also runs an agent process
// that spawns tool workers on the node and forwards binary-tree broadcasts.
package lfs

import (
	"errors"
	"fmt"
	"strings"

	"bridge/internal/efs"
	"bridge/internal/msg"
)

// PortName is the LFS server port on every storage node.
const PortName = "lfs"

// AgentPortName is the node agent port on every storage node.
const AgentPortName = "agent"

// ScratchBase is the start of the local scratch file-id range. Bridge
// directory consistency requires that all global Create/Delete/Open go
// through the Bridge Server, but tools (like the sort's local run files)
// may create node-local scratch files with ids at or above this base.
const ScratchBase uint32 = 1 << 30

// The LFS protocol's failure classes: what the msg.Status embedded in every
// LFS and agent reply (and every per-block result of a vectored one) holds
// when the operation failed. A code survives the trip through a message
// where a Go error value would not (on a real network).
const (
	CodeNotFound msg.Code = iota + 1
	CodeExists
	CodeNoSpace
	CodeBadBlockNum
	CodeNotAppend
	CodeTooLarge
	CodeCorrupt
	CodeTimeout // a node the call, or a forward it made, waited on did not answer
	CodeIO      // anything else: no class, only its text
)

// classes is the one table between the codes and the EFS sentinels they
// stand for; StatusFor reads it one way and Err the other. CodeIO, and any
// code from outside the table, stands for errIO.
var classes = [...]error{
	CodeNotFound:    efs.ErrNotFound,
	CodeExists:      efs.ErrExists,
	CodeNoSpace:     efs.ErrNoSpace,
	CodeBadBlockNum: efs.ErrBadBlockNum,
	CodeNotAppend:   efs.ErrNotAppend,
	CodeTooLarge:    efs.ErrTooLarge,
	CodeCorrupt:     efs.ErrCorrupt,
	CodeTimeout:     msg.ErrTimeout,
}

var errIO = errors.New("lfs: I/O error")

// StatusFor classifies an error for transport: the status a reply embeds.
func StatusFor(err error) msg.Status {
	if err == nil {
		return msg.Status{}
	}
	for c := CodeNotFound; int(c) < len(classes); c++ {
		if errors.Is(err, classes[c]) {
			return msg.Failed(c, err.Error())
		}
	}
	return msg.Failed(CodeIO, err.Error())
}

// Err rebuilds the error a transported status stands for: nil for a
// success, otherwise its code's sentinel wrapped around the detail.
func Err(st msg.Status) error {
	if st.OK() {
		return nil
	}
	base := errIO
	if c := int(st.Code()); c > 0 && c < len(classes) {
		base = classes[c]
	}
	detail := st.Detail()
	if detail == "" {
		return base
	}
	// Details usually embed the base message already; don't repeat it.
	if rest, found := strings.CutPrefix(detail, base.Error()); found {
		return fmt.Errorf("%w%s", base, rest)
	}
	return fmt.Errorf("%w: %s", base, detail)
}

// HeadBytes is the most a Head holds: the Bridge header.
const HeadBytes = 40

// Head is the front of a block's data area, carried by value beside the
// rest of it in a write: the Bridge header before a payload. The writer
// never joins the two into one buffer; EFS writes Head, then Data, straight
// into the block image. The zero Head is empty.
type Head struct {
	Buf [HeadBytes]byte
	Len uint8
}

// Bytes returns the head's bytes. A Len past HeadBytes, which no writer
// builds but a peer's message could carry, reads as the whole buffer rather
// than failing the node.
func (h *Head) Bytes() []byte { return h.Buf[:min(int(h.Len), HeadBytes)] }

// Request and reply bodies. Replies carry the disk address of the block
// touched, which the stateless protocol returns to callers as the hint for
// their next request.
type (
	// CreateReq registers a new local file.
	CreateReq struct{ FileID uint32 }
	// CreateResp acknowledges a CreateReq.
	CreateResp struct{ msg.Status }

	// DeleteReq removes a local file. Fast skips the per-block flag-clear
	// rewrite on unjournaled volumes (bitmap-only free), the mode the
	// parallel delete tool uses; journaled volumes already free through the
	// bitmap alone, so Fast changes nothing there.
	DeleteReq struct {
		FileID uint32
		Fast   bool
	}
	// DeleteResp reports the number of blocks freed.
	DeleteResp struct {
		Freed int
		msg.Status
	}

	// ReadReq reads one logical block, with an optional disk-address
	// hint (pass efs nilAddr, -1, for none).
	ReadReq struct {
		FileID   uint32
		BlockNum uint32
		Hint     int32
	}
	// ReadResp returns the block data and its disk address.
	ReadResp struct {
		Data []byte
		Addr int32
		msg.Status
	}

	// WriteReq writes one logical block (append when BlockNum equals the
	// file size): Head, then Data. A non-zero OpID enables dedup of
	// retransmitted or duplicated copies: without it, a delayed duplicate
	// arriving after a newer write to the same block would silently revert
	// the data.
	WriteReq struct {
		FileID   uint32
		BlockNum uint32
		Head     Head
		Data     []byte
		Hint     int32
		OpID     uint64
	}
	// WriteResp returns the written block's disk address.
	WriteResp struct {
		Addr int32
		msg.Status
	}

	// ReadVecReq reads a run of logical blocks in one request — the
	// vectored read the Bridge Server uses for scatter-gather I/O. Blocks
	// are read in order with the disk-address hint chained from block to
	// block (the first uses Hint). Failures are reported per block, so a
	// hole in the middle of a run does not hide the blocks after it.
	ReadVecReq struct {
		FileID uint32
		Blocks []uint32
		Hint   int32
	}
	// VecRead is one block's result within a ReadVecResp.
	VecRead struct {
		Data []byte
		Addr int32
		msg.Status
	}
	// ReadVecResp returns one VecRead per requested block, in request
	// order. Status covers the request as a whole (bad file id, unknown
	// request); per-block failures live in the entries.
	ReadVecResp struct {
		Blocks []VecRead
		msg.Status
	}

	// VecWrite is one block of a WriteVecReq: Head, then Data.
	VecWrite struct {
		BlockNum uint32
		Head     Head
		Data     []byte
	}
	// WriteVecReq writes a run of logical blocks in one request (appends
	// when each BlockNum equals the file size as the run lands). A
	// non-zero OpID dedups the whole vector exactly like WriteReq: a
	// retransmitted copy that already executed replays the cached reply
	// instead of re-running the writes.
	WriteVecReq struct {
		FileID uint32
		Blocks []VecWrite
		Hint   int32
		OpID   uint64
	}
	// VecWritten is one block's result within a WriteVecResp.
	VecWritten struct {
		Addr int32
		msg.Status
	}
	// WriteVecResp returns one VecWritten per block, in request order.
	WriteVecResp struct {
		Blocks []VecWritten
		msg.Status
	}

	// StatReq asks for a file's directory information.
	StatReq struct{ FileID uint32 }
	// StatResp returns it.
	StatResp struct {
		Info efs.FileInfo
		msg.Status
	}

	// SyncReq flushes metadata write-behind.
	SyncReq struct{}
	// SyncResp acknowledges a SyncReq.
	SyncResp struct{ msg.Status }

	// UsageReq asks for the volume's capacity and free space.
	UsageReq struct{}
	// UsageResp returns them, in blocks.
	UsageResp struct {
		TotalBlocks int
		FreeBlocks  int
		msg.Status
	}

	// PingReq is the health monitor's heartbeat; it touches nothing.
	PingReq struct{}
	// PingResp acknowledges a PingReq.
	PingResp struct{ msg.Status }

	// CheckReq runs the volume consistency checker (fsck); Repair also
	// rebuilds the allocation bitmap from the chains.
	CheckReq struct{ Repair bool }
	// CheckResp returns the report and, after a repair, the number of
	// bitmap corrections.
	CheckResp struct {
		Report efs.CheckReport
		Fixes  int
		msg.Status
	}

	// ScrubReq verifies block checksums on the volume: a Full sweep covers
	// every allocated block from the start; otherwise one budgeted
	// increment runs from the scrubber's cursor (same as the background
	// scrubber's ticks).
	ScrubReq struct{ Full bool }
	// ScrubResp returns the sweep report.
	ScrubResp struct {
		Report efs.ScrubReport
		msg.Status
	}

	// RecoveryReq asks for the node's most recent boot recovery report.
	RecoveryReq struct{}
	// RecoveryResp returns it. Status is CodeNotFound when the node has
	// never mounted an existing volume (a fresh format has nothing to
	// recover).
	RecoveryResp struct {
		Report RecoveryReport
		msg.Status
	}
)

// RecoveryReport describes what a node did to come back from a crash: the
// journal replay (when the volume is journaled) and the fsck that verified
// the result, unless the store was clean at open — it held exactly its last
// sync barrier, so the volume is replayed, not walked, and Fsck is zero. It
// is built once per mount and served unchanged afterwards.
type RecoveryReport struct {
	Journaled   bool            // volume has a write-ahead journal
	CleanAtOpen bool            // store was clean at open: replayed, not walked
	Replay      efs.ReplayStats // journal replay outcome (zero when !Journaled)
	Fsck        efs.CheckReport // post-mount verifier result
	FsckErr     string          // fsck infrastructure failure, "" when it ran
}

// Clean reports whether recovery found nothing wrong with the volume.
func (r RecoveryReport) Clean() bool { return r.FsckErr == "" && r.Fsck.OK() }
