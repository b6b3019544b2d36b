// Package core implements the top layer of the Bridge file system: the
// Bridge Server and its client library. The server glues the per-node local
// file systems into a single logical structure; its directory maps each
// interleaved file to the constituent LFS files, and it implements the
// command set of Table 1 of the paper (Create, Delete, Open, sequential and
// random reads and writes, Parallel Open, Get Info).
//
// Three system views are offered, exactly as in the paper:
//
//   - the naive view: ordinary open/read/write, with the server
//     transparently forwarding each request to the right LFS;
//   - the parallel-open view: a job groups t worker processes, and each
//     read or write moves t blocks with as much parallelism as the
//     interleaving allows (virtual parallelism beyond p is simulated in
//     lock-step groups);
//   - the tool view: Get Info and Open expose the interleaved structure so
//     a tool can spawn workers on the LFS nodes and access local files
//     directly, bypassing the server on the data path.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bridge/internal/distrib"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
)

// Bridge block geometry: each 1000-byte LFS data area carries a 40-byte
// Bridge header and 960 bytes of payload, matching the paper.
const (
	HeaderBytes  = 40
	PayloadBytes = efs.DataBytes - HeaderBytes // 960
)

var blockMagic = [4]byte{'B', 'R', 'B', 'K'}

// Errors returned by the Bridge client library.
var (
	ErrNotFound  = errors.New("bridge: file not found")
	ErrExists    = errors.New("bridge: file exists")
	ErrEOF       = errors.New("bridge: end of file")
	ErrBadBlock  = errors.New("bridge: corrupt bridge block")
	ErrNoJob     = errors.New("bridge: no such job")
	ErrBadArg    = errors.New("bridge: invalid argument")
	ErrLFSFailed = errors.New("bridge: constituent LFS operation failed")
	// ErrNodeDown is a fast-fail: the health monitor has declared the
	// target node dead, so the server refuses the LFS call immediately
	// instead of waiting out LFSTimeout.
	ErrNodeDown = errors.New("bridge: node marked down")
	// ErrDeferredWrite reports that a write the server already acknowledged
	// under write-behind later failed to land. It surfaces exactly once, on
	// the next operation touching the file (or its explicit Flush), after
	// the server has rolled the file's size back to the contiguous prefix
	// that did land.
	ErrDeferredWrite = errors.New("bridge: deferred write-behind write failed")
	// ErrNotLeader reports that a replicated Bridge Server refused an
	// operation because it is not the Raft leader. The reply's detail
	// carries a "(leader=N)" hint when the replica knows who is; the client
	// redirect loop reads it out of a reply whose code is not-leader and
	// retries against that replica.
	ErrNotLeader = errors.New("bridge: not leader")
	// ErrCrossShard reports a rename whose old and new names hash to
	// different directory shards. Rename is a single-shard directory
	// mutation — there is no cross-group transaction — so the client
	// rejects the pair before any server sees it. Pick a new name that
	// hashes to the file's current shard, or copy + delete.
	ErrCrossShard = errors.New("bridge: rename crosses directory shards")
	// ErrSkipped marks a write item of a scatter that was never attempted
	// because another write item of the same request could not start: the
	// file it names is untouched.
	ErrSkipped = errors.New("bridge: scatter write not attempted")
	// ErrStaleOp refuses a stale duplicate: a copy of an operation older
	// than the client's latest, which never runs. Its sender stopped
	// waiting for it when it sent the next one (see Client).
	ErrStaleOp = errors.New("bridge: stale duplicate operation")
)

// ErrCorrupt is efs.ErrCorrupt re-exported: a block failed checksum
// verification somewhere beneath a Bridge operation. It survives transport
// (it has a code of its own, and one shared with ErrLFSFailed), so clients
// can classify integrity failures with errors.Is even when the storage
// node's failure is the primary classification.
var ErrCorrupt = efs.ErrCorrupt

// BlockHeader is the 40-byte Bridge header at the front of every block's
// data area. Because the stored pointers are (block-number, LFS-instance)
// pairs rather than raw disk addresses, a tool that copies blocks verbatim
// produces a new file whose headers remain valid — the property the copy
// tool relies on.
type BlockHeader struct {
	FileID      uint32 // Bridge file id
	GlobalBlock int64  // global block number within the interleaved file
	P           uint16 // interleaving breadth
	Start       uint16 // node index holding global block zero
	PayloadLen  uint16
	// Chain link for disordered files: the location of the next block.
	// Interleaved files leave HasNext false (their placement is a
	// formula, not a chain).
	HasNext   bool
	NextNode  uint16 // node index of the next block
	NextLocal uint32 // local block number of the next block
}

// EncodeBlock builds a full LFS data area (efs.DataBytes) from a header and
// payload. It panics if the payload exceeds PayloadBytes, which is always a
// caller bug.
func EncodeBlock(h BlockHeader, payload []byte) []byte {
	if len(payload) > PayloadBytes {
		panic(fmt.Sprintf("core: payload %d exceeds %d", len(payload), PayloadBytes))
	}
	buf := make([]byte, efs.DataBytes)
	copy(buf, blockMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], h.FileID)
	binary.LittleEndian.PutUint64(buf[8:], uint64(h.GlobalBlock))
	binary.LittleEndian.PutUint16(buf[16:], h.P)
	binary.LittleEndian.PutUint16(buf[18:], h.Start)
	binary.LittleEndian.PutUint16(buf[20:], uint16(len(payload)))
	if h.HasNext {
		buf[22] = 1
		binary.LittleEndian.PutUint16(buf[23:], h.NextNode)
		binary.LittleEndian.PutUint32(buf[25:], h.NextLocal)
	}
	// bytes 29..39 reserved.
	copy(buf[HeaderBytes:], payload)
	return buf[:HeaderBytes+len(payload)]
}

// DecodeBlock splits an LFS data area into header and payload.
func DecodeBlock(data []byte) (BlockHeader, []byte, error) {
	if len(data) < HeaderBytes {
		return BlockHeader{}, nil, fmt.Errorf("%w: %d bytes", ErrBadBlock, len(data))
	}
	var magic [4]byte
	copy(magic[:], data)
	if magic != blockMagic {
		return BlockHeader{}, nil, fmt.Errorf("%w: bad magic", ErrBadBlock)
	}
	h := BlockHeader{
		FileID:      binary.LittleEndian.Uint32(data[4:]),
		GlobalBlock: int64(binary.LittleEndian.Uint64(data[8:])),
		P:           binary.LittleEndian.Uint16(data[16:]),
		Start:       binary.LittleEndian.Uint16(data[18:]),
		PayloadLen:  binary.LittleEndian.Uint16(data[20:]),
		HasNext:     data[22] == 1,
	}
	if h.HasNext {
		h.NextNode = binary.LittleEndian.Uint16(data[23:])
		h.NextLocal = binary.LittleEndian.Uint32(data[25:])
	}
	if int(h.PayloadLen) > len(data)-HeaderBytes {
		return BlockHeader{}, nil, fmt.Errorf("%w: payload length %d beyond block", ErrBadBlock, h.PayloadLen)
	}
	return h, data[HeaderBytes : HeaderBytes+int(h.PayloadLen)], nil
}

// PortName is the Bridge Server's request port.
const PortName = "bridge"

// Meta is the structural information the server returns from Open: enough
// for a tool to translate between global and local block names and to reach
// every constituent LFS directly.
type Meta struct {
	Name      string
	FileID    uint32
	LFSFileID uint32
	Spec      distrib.Spec
	// Nodes lists the storage nodes in placement order: distrib node
	// index i is Nodes[i].
	Nodes  []msg.NodeID
	Blocks int64
	// Chain is the linked-list state of a disordered file; nil for
	// formulaic placements.
	Chain *ChainInfo
}

// ChainInfo tracks a disordered file: the chain endpoints and the next
// free local block on every node.
type ChainInfo struct {
	HeadNode    uint16
	HeadLocal   uint32
	TailNode    uint16
	TailLocal   uint32
	LocalCounts []int64
}

// Layout builds the placement layout for the file. Disordered files have
// no layout: their placement is the chain itself.
func (m *Meta) Layout() (distrib.Layout, error) { return distrib.New(m.Spec) }

// LocalBlocks returns how many blocks of the file node index i holds.
func (m *Meta) LocalBlocks(i int) int64 {
	if m.Spec.Kind == distrib.Disordered {
		if m.Chain == nil || i < 0 || i >= len(m.Chain.LocalCounts) {
			return 0
		}
		return m.Chain.LocalCounts[i]
	}
	l, err := distrib.New(m.Spec)
	if err != nil {
		return 0
	}
	var n int64
	// Count exactly for any layout; cheap closed forms exist only for
	// round-robin.
	if m.Spec.Kind == distrib.RoundRobin {
		p := int64(m.Spec.P)
		n = m.Blocks / p
		if int64((i-m.Spec.Start+m.Spec.P)%m.Spec.P) < m.Blocks%p {
			n++
		}
		return n
	}
	for b := int64(0); b < m.Blocks; b++ {
		if l.NodeFor(b) == i {
			n++
		}
	}
	return n
}

// Info describes the cluster, as returned by Get Info: "sufficient
// information ... to allow the new program to find the processors attached
// to the disks".
type Info struct {
	P      int
	Nodes  []msg.NodeID
	Server msg.Addr
}

// Request and reply bodies for the Bridge Server protocol (Table 1).
type (
	// CreateReq creates an interleaved file. Spec.P == 0 means "all
	// nodes"; Kind zero value means round-robin. Tree selects the
	// binary-tree initiation ablation instead of the paper's sequential
	// loop.
	CreateReq struct {
		Name string
		Spec distrib.Spec
		Tree bool
		// Subset optionally names the storage nodes (as indices into the
		// cluster's node list) the file spans; len must equal Spec.P.
		// Empty means the first Spec.P nodes.
		Subset []int
		// OpID is the client's operation id for retransmission dedup;
		// 0 disables dedup for this request.
		OpID uint64
	}
	// CreateResp acknowledges a CreateReq.
	CreateResp struct {
		Meta Meta
		msg.Status
	}

	// DeleteReq deletes a file on every constituent LFS in parallel.
	DeleteReq struct {
		Name string
		OpID uint64
	}
	// DeleteResp reports total blocks freed across all LFS instances.
	DeleteResp struct {
		Freed int
		msg.Status
	}

	// RenameReq atomically moves a file to a new name within the flat
	// namespace. It is a pure directory mutation — the constituent LFS
	// files are keyed by file id, not name, so no storage node is
	// touched. The OpID makes a retried rename safe.
	RenameReq struct {
		Name    string
		NewName string
		OpID    uint64
	}
	// RenameResp returns the moved file's metadata under its new name.
	RenameResp struct {
		Meta Meta
		msg.Status
	}

	// OpenReq opens a file. Open is a hint: the server refreshes its
	// size cache and sets up a cursor; there is no close.
	OpenReq struct{ Name string }
	// OpenResp returns the file's structural information.
	OpenResp struct {
		Meta Meta
		msg.Status
	}

	// SeqReadReq reads the next block at the caller's cursor. It carries
	// an OpID because it mutates the cursor: a retransmitted read must
	// get the cached block back, not advance the cursor twice.
	SeqReadReq struct {
		Name string
		OpID uint64
	}
	// SeqReadResp returns the payload; EOF is set past the end.
	SeqReadResp struct {
		Data []byte
		EOF  bool
		msg.Status
	}

	// SeqWriteReq appends one block. The OpID is what makes a retried
	// append safe: the server dedups it instead of appending twice.
	SeqWriteReq struct {
		Name string
		Data []byte
		OpID uint64
	}
	// SeqWriteResp acknowledges an append.
	SeqWriteResp struct{ msg.Status }

	// SeqReadNReq reads up to Max blocks at the caller's cursor in one
	// request — the batched naive path. The server splits the run by the
	// file's layout and issues one vectored LFS call per node, so all p
	// disks seek concurrently. It carries an OpID because it advances the
	// cursor: a retransmitted batch must replay the cached blocks, not
	// advance twice.
	SeqReadNReq struct {
		Name string
		Max  int
		OpID uint64
	}
	// SeqReadNResp returns the payloads in file order; EOF is set when
	// the cursor reached the end of the file.
	SeqReadNResp struct {
		Blocks [][]byte
		EOF    bool
		msg.Status
	}

	// RandReadNReq reads Count blocks starting at BlockNum in one
	// scatter-gather request.
	RandReadNReq struct {
		Name     string
		BlockNum int64
		Count    int
	}
	// RandReadNResp returns the payloads in file order.
	RandReadNResp struct {
		Blocks [][]byte
		msg.Status
	}

	// RandWriteNReq writes len(Blocks) consecutive blocks starting at
	// BlockNum (append when BlockNum is -1 or equals the size) in one
	// scatter-gather request. The OpID makes a retried batch safe.
	RandWriteNReq struct {
		Name     string
		BlockNum int64
		Blocks   [][]byte
		OpID     uint64
	}
	// RandWriteNResp reports how many blocks from the front of the run
	// landed; on partial failure Written counts the contiguous prefix.
	RandWriteNResp struct {
		Written int
		msg.Status
	}

	// RandReadReq reads block BlockNum.
	RandReadReq struct {
		Name     string
		BlockNum int64
	}
	// RandReadResp returns the payload.
	RandReadResp struct {
		Data []byte
		msg.Status
	}

	// RandWriteReq writes block BlockNum (append when BlockNum == size).
	RandWriteReq struct {
		Name     string
		BlockNum int64
		Data     []byte
		OpID     uint64
	}
	// RandWriteResp acknowledges a random write.
	RandWriteResp struct{ msg.Status }

	// ScatterItem is one single-block operation of a ScatterReq: a read
	// of block BlockNum, or (Write set) a positional write of Data at
	// BlockNum, which appends when BlockNum equals the file's size.
	ScatterItem struct {
		Name     string
		BlockNum int64
		Write    bool
		Data     []byte
	}
	// ScatterReq carries single-block reads and positional writes on
	// several files in one request. The server starts every item's LFS
	// call before it awaits any, so blocks on different nodes move side
	// by side, and answers each item separately. Reads are independent.
	// Writes are admitted together: if any write item is invalid or
	// targets a node already declared dead, none is committed or started.
	// Disordered files, whose blocks are found by walking a chain, are
	// refused.
	// Write item i is recorded under operation id OpID+1+i (a request
	// with no write item carries OpID 0), so a retransmission applies
	// each write at most once.
	ScatterReq struct {
		Items []ScatterItem
		OpID  uint64
	}
	// ScatterResult is one item's outcome: the payload read, or the
	// item's own failure.
	ScatterResult struct {
		Data []byte
		msg.Status
	}
	// ScatterResp answers a ScatterReq. Results is nil when every item
	// was a write that landed. Its own status reports a failure of the
	// request as a whole: before anything was committed, or because
	// leadership was lost part-way, which the client's retransmission to
	// the new leader completes.
	ScatterResp struct {
		Results []ScatterResult
		msg.Status
	}

	// FlushReq forces the server's write-behind buffer down to the LFS
	// layer and syncs the touched nodes — the explicit group-commit
	// barrier. Name selects one file; "" flushes every buffered file on
	// the server. A deferred write failure parked on a flushed file is
	// surfaced (and consumed) here.
	FlushReq struct {
		Name string
		OpID uint64
	}
	// FlushResp reports how many buffered blocks the barrier pushed out.
	FlushResp struct {
		Flushed int
		msg.Status
	}

	// ReleaseReq atomically unregisters a file from the Bridge directory
	// and returns its final structural metadata: the parallel delete
	// tool's first step. After a release no new opens or reads can reach
	// the file through the server, so the tool can free the constituent
	// LFS files without racing the naive path. Write-behind state for the
	// file is quiesced and dropped.
	ReleaseReq struct {
		Name string
		OpID uint64
	}
	// ReleaseResp returns the released file's metadata.
	ReleaseResp struct {
		Meta Meta
		msg.Status
	}

	// StatReq returns a file's metadata without opening it.
	StatReq struct{ Name string }
	// StatResp carries the metadata.
	StatResp struct {
		Meta Meta
		msg.Status
	}

	// ParallelOpenReq groups the calling process (the job controller)
	// and its workers into a job. Every job command carries an OpID: each
	// changes the server's job state, so a retransmission must get the
	// first reply back, not open, move or close again.
	ParallelOpenReq struct {
		Name    string
		Workers []msg.Addr
		OpID    uint64
	}
	// ParallelOpenResp returns the job id.
	ParallelOpenResp struct {
		JobID uint64
		Meta  Meta
		msg.Status
	}

	// ParallelReadReq transfers the next t blocks, one to each worker.
	ParallelReadReq struct{ JobID, OpID uint64 }
	// ParallelReadResp tells the controller how many blocks went out.
	ParallelReadResp struct {
		Delivered int
		EOF       bool
		msg.Status
	}

	// ParallelWriteReq appends t blocks, one received from each worker.
	ParallelWriteReq struct{ JobID, OpID uint64 }
	// ParallelWriteResp acknowledges the round.
	ParallelWriteResp struct {
		Written int
		msg.Status
	}

	// CloseJobReq discards job state (the only stateful part of the
	// interface, so jobs do get an explicit end).
	CloseJobReq struct{ JobID, OpID uint64 }
	// CloseJobResp acknowledges a CloseJobReq.
	CloseJobResp struct{ msg.Status }

	// ListReq asks for all file names in the Bridge directory (an
	// extension beyond Table 1; every usable file system needs it).
	ListReq struct{}
	// ListResp returns the names, sorted.
	ListResp struct {
		Names []string
		msg.Status
	}

	// GetInfoReq asks for the cluster structure.
	GetInfoReq struct{}
	// GetInfoResp returns it.
	GetInfoResp struct {
		Info Info
		msg.Status
	}

	// HealthReq asks for the server's view of every storage node (requires
	// Config.Health; without a monitor all nodes report Healthy).
	HealthReq struct{}
	// HealthResp returns the node states in interleaving order.
	HealthResp struct {
		States []NodeHealth
		msg.Status
	}

	// RepairNodeReq re-registers, on storage node index Node, the LFS file
	// of every Bridge file placed there. A restarted node has lost any
	// directory metadata it had not synced; this restores the LFS-level
	// files (their surviving blocks reattach) so replica-layer repair can
	// rewrite the lost ones.
	RepairNodeReq struct {
		Node int
		OpID uint64
	}
	// RepairNodeResp reports how many files were re-registered.
	RepairNodeResp struct {
		Files int
		msg.Status
	}

	// FsckReq runs the LFS-level consistency checker on storage node
	// index Node; Repair also rebuilds the node's allocation bitmap from
	// its file chains.
	FsckReq struct {
		Node   int
		Repair bool
		OpID   uint64
	}
	// FsckResp returns the node's report and, after a repair, the number
	// of bitmap corrections.
	FsckResp struct {
		Report efs.CheckReport
		Fixes  int
		msg.Status
	}

	// ScrubReq runs a full checksum-verification sweep over every
	// allocated block on storage node index Node.
	ScrubReq struct{ Node int }
	// ScrubResp returns the sweep report.
	ScrubResp struct {
		Report efs.ScrubReport
		msg.Status
	}

	// RecoveryReq fetches storage node index Node's boot recovery report:
	// journal replay stats plus the fsck that verified the remounted
	// volume.
	RecoveryReq struct{ Node int }
	// RecoveryResp returns it.
	RecoveryResp struct {
		Report lfs.RecoveryReport
		msg.Status
	}

	// WorkerData is the one-way message a job read sends to a worker.
	WorkerData struct {
		JobID uint64
		Seq   int64 // global block number
		Data  []byte
		EOF   bool
	}
	// WorkerPoke asks a job worker for its next block during a parallel
	// write.
	WorkerPoke struct {
		JobID uint64
		Seq   int64 // global block number the worker's data will get
	}
	// WorkerBlock is the worker's response to a poke, sent to the job
	// port.
	WorkerBlock struct {
		JobID uint64
		Seq   int64
		Data  []byte
		EOF   bool // worker has no more data
	}
)
