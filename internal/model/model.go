// Package model is the analytical performance model that accompanies the
// simulator — the counterpart of the paper's companion analysis (Dibble &
// Scott, "Analysis of a parallel disk-based merge sort", reference [17]),
// which expressed "the maximum available degree of parallelism in terms of
// the relative performance of processors, communication channels, and
// physical devices" and whose constants "agree quite nicely with empirical
// data".
//
// The model predicts, in closed form, the cost of the basic operations, the
// copy tool, both sort phases, and the saturation width of the token-ring
// merge. The experiments package compares these predictions against the
// simulation; they agree within a few percent for the disk-bound operations
// and within tens of percent where queueing effects (which the closed forms
// ignore) matter.
package model

import (
	"cmp"
	"math/bits"
	"slices"
	"time"

	"bridge/internal/core"
	"bridge/internal/disk"
	"bridge/internal/efs"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/tools"
)

// Params holds the hardware and software constants. Default takes them from
// the simulator's defaults (msg.DefaultConfig, 15 ms Wren-class disks, the
// LFS and Bridge Server CPU charges).
type Params struct {
	// DiskLatency is one device access (D).
	DiskLatency time.Duration
	// BlocksPerTrack amortizes sequential reads: a track read costs one
	// access and serves BlocksPerTrack blocks.
	BlocksPerTrack int
	// SendCPU and RecvCPU are per-message processor charges.
	SendCPU time.Duration
	RecvCPU time.Duration
	// LocalLatency and RemoteLatency are message transfer delays.
	LocalLatency  time.Duration
	RemoteLatency time.Duration
	// BytesPerSec is internode bandwidth; BlockBytes the payload size, and
	// HeaderBytes the header every message carries with it.
	BytesPerSec int64
	BlockBytes  int
	HeaderBytes int
	// LFSCPU and ServerCPU are per-request charges at the LFS and the
	// Bridge Server.
	LFSCPU    time.Duration
	ServerCPU time.Duration
	// SpawnCPU is process creation cost at a node agent.
	SpawnCPU time.Duration
	// SortCPUPerRecord is compare/move cost per record per pass.
	SortCPUPerRecord time.Duration
	// InCore is the sort's in-core buffer in records.
	InCore int
	// CacheBlocks is each node's EFS block cache, least recently used out
	// first.
	CacheBlocks int
}

// Default returns the constants matching the simulator's defaults.
// Each is read from the package that charges it, so the two cannot drift.
func Default() Params {
	net := msg.DefaultConfig()
	return Params{
		DiskLatency:      disk.DefaultLatency,
		BlocksPerTrack:   disk.DefaultBlocksPerTrack,
		SendCPU:          net.SendCPU,
		RecvCPU:          net.RecvCPU,
		LocalLatency:     net.LocalLatency,
		RemoteLatency:    net.RemoteLatency,
		BytesPerSec:      net.BytesPerSec,
		BlockBytes:       disk.DefaultBlockSize,
		HeaderBytes:      net.HeaderBytes,
		LFSCPU:           lfs.DefaultOpCPU,
		ServerCPU:        core.DefaultOpCPU,
		SpawnCPU:         lfs.SpawnCPU,
		SortCPUPerRecord: tools.DefaultCPUPerRecord,
		InCore:           tools.DefaultInCore,
		CacheBlocks:      efs.DefaultCacheBlocks,
	}
}

// transfer returns the wire delay for one block-sized message, its header
// priced with its payload as the simulator's network prices it.
func (p Params) transfer(local bool) time.Duration {
	if local {
		return p.LocalLatency
	}
	d := p.RemoteLatency
	if p.BytesPerSec > 0 {
		d += time.Duration(int64(p.BlockBytes+p.HeaderBytes) * int64(time.Second) / p.BytesPerSec)
	}
	return d
}

// msgCost is the CPU of one message hop (sender plus receiver).
func (p Params) msgCost() time.Duration { return p.SendCPU + p.RecvCPU }

// lfsCall is the round-trip cost of one LFS request carrying deviceTime of
// disk work, as seen by a blocked caller on the same node (local) or
// another node.
func (p Params) lfsCall(deviceTime time.Duration, local bool) time.Duration {
	return 2*p.msgCost() + 2*p.transfer(local) + p.LFSCPU + deviceTime
}

// SeqReadBlock is the amortized cost of one sequential block read at the
// LFS: a track read every BlocksPerTrack blocks.
func (p Params) seqReadDevice() time.Duration {
	return p.DiskLatency / time.Duration(p.BlocksPerTrack)
}

// appendDevice is the device time of one append: the new block plus the
// old tail's pointer rewrite, write-through.
func (p Params) appendDevice() time.Duration { return 2 * p.DiskLatency }

// NaiveRead predicts the naive-interface per-block sequential read: client
// to server to LFS and back (two message round trips plus the device).
func (p Params) NaiveRead() time.Duration {
	// client<->server hop pair + server CPU, then server<->LFS call.
	return 2*p.msgCost() + 2*p.transfer(true) + p.ServerCPU + p.lfsCall(p.seqReadDevice(), false)
}

// NaiveWrite predicts the naive-interface per-block append.
func (p Params) NaiveWrite() time.Duration {
	return 2*p.msgCost() + 2*p.transfer(true) + p.ServerCPU + p.lfsCall(p.appendDevice(), false)
}

// DeletePerBlock predicts the per-block cost of delete at one LFS: the
// freeing write plus the amortized chain read.
func (p Params) DeletePerBlock() time.Duration {
	return p.DiskLatency + p.seqReadDevice() + p.LFSCPU
}

// DeleteTotal predicts a whole-file delete: the per-node chains free in
// parallel.
func (p Params) DeleteTotal(records, procs int) time.Duration {
	perNode := (records + procs - 1) / procs
	return time.Duration(perNode) * p.DeletePerBlock()
}

// CreateTime predicts Create: sequential initiation and termination at the
// server (a send and a receive per LFS) around one parallel directory
// operation.
func (p Params) CreateTime(procs int) time.Duration {
	perNode := p.SendCPU + p.RecvCPU
	return p.ServerCPU + time.Duration(procs)*perNode + p.transfer(false)*2 + p.LFSCPU
}

// ToolStartup predicts spawning one worker per node (sequential sends,
// overlapped spawns, gathered acks).
func (p Params) ToolStartup(procs int) time.Duration {
	return time.Duration(procs)*(p.SendCPU+p.RecvCPU) + p.SpawnCPU + 2*p.transfer(false)
}

// ceilDiv is the number of size-n pieces that cover total.
func ceilDiv(total, n int) int { return (total + n - 1) / n }

// readColumn is a tool reading a local file front to back: one LFS round
// trip per run of tools.RunBlocks (r, not a parameter: the tools' constant),
// one device access per track.
func (p Params) readColumn(blocks int) time.Duration {
	return time.Duration(ceilDiv(blocks, tools.RunBlocks))*p.lfsCall(0, true) +
		time.Duration(ceilDiv(blocks, p.BlocksPerTrack))*p.DiskLatency
}

// readBack is readColumn of a column written just before, as Tables 3 and 4
// fill their source and then run the tool on it: the first blocks are still
// in the cache. Block j is reached after the blocks written after it and the
// j read and about j written since, so it is a hit while blocks+j fit in
// the cache.
func (p Params) readBack(blocks int) time.Duration {
	hits := min(max(p.CacheBlocks-blocks, 0), blocks)
	return time.Duration(ceilDiv(blocks, tools.RunBlocks))*p.lfsCall(0, true) +
		time.Duration(ceilDiv(blocks-hits, p.BlocksPerTrack))*p.DiskLatency
}

// appendColumn is a tool writing a new local file: one appendRun per run,
// less the first run's tail fix — a new file has no old tail to link.
func (p Params) appendColumn(blocks int) time.Duration {
	d := -p.DiskLatency
	for left := blocks; left > 0; left -= tools.RunBlocks {
		d += p.appendRun(min(left, tools.RunBlocks))
	}
	return d
}

// appendRun is one run of n blocks appended to a file that has blocks
// already: one LFS round trip, one access for each track the new blocks
// touch, and one for the old tail's pointer (where block-at-a-time paid 2 per
// block).
func (p Params) appendRun(n int) time.Duration {
	return p.lfsCall(0, true) + p.runDevice(n) + p.DiskLatency
}

// runDevice is the device time of writing n consecutive new blocks, one
// access per track they touch. A file starts wherever the allocator finds
// room, so where a run starts on its track is taken as uniform: n blocks
// touch 1 + (n-1)/BlocksPerTrack tracks on average, whether n is less than a
// track or spans several (Hermite's identity).
func (p Params) runDevice(n int) time.Duration {
	b := time.Duration(p.BlocksPerTrack)
	return (b + time.Duration(n-1)) * p.DiskLatency / b
}

// discardColumn is freeing a scratch file: one request, and the chain walk's
// track reads — the bitmap-only free rewrites nothing.
func (p Params) discardColumn(blocks int) time.Duration {
	return p.lfsCall(0, true) + time.Duration(ceilDiv(blocks, p.BlocksPerTrack))*p.DiskLatency
}

// CopyTime predicts the copy tool on a file just written: the create of the
// destination, then each node moves records/procs blocks through its one LFS
// and disk, a run at a time, plus startup and completion.
// (The worker's read-ahead hides none of this: reads and appends queue at the
// same LFS, so the round trips add up whoever waits for them.)
func (p Params) CopyTime(records, procs int) time.Duration {
	perNode := ceilDiv(records, procs)
	return p.CreateTime(procs) + p.readBack(perNode) + p.appendColumn(perNode) + 2*p.ToolStartup(procs)
}

// SortLocalTime predicts the local external sort phase on each node, one
// worker a node started and awaited like the copy's: run formation (read and
// write every block, sort InCore at a time) and then two-way merges of the
// two shortest runs until one is left, each reading and writing the blocks
// of its two inputs and discarding them — the tool's order, so the blocks
// moved are counted merge by merge, not as passes x blocks. The run written
// last is read back while the cache still holds it, as the source is.
func (p Params) SortLocalTime(records, procs int) time.Duration {
	perNode := ceilDiv(records, procs)
	log2InCore := max(1, bits.Len(uint(p.InCore-1))) // compares per record of an in-core sort
	total := 2*p.ToolStartup(procs) + p.readBack(perNode) + p.appendColumn(perNode) +
		time.Duration(perNode*log2InCore)*p.SortCPUPerRecord
	type run struct{ blocks, seq int } // seq: the order runs are written in
	var runs []run
	for left := perNode; left > 0; left -= p.InCore {
		runs = append(runs, run{min(left, p.InCore), len(runs)})
	}
	newest := len(runs) - 1
	read := func(r run) time.Duration {
		if r.seq == newest {
			return p.readBack(r.blocks)
		}
		return p.readColumn(r.blocks)
	}
	for len(runs) > 1 {
		slices.SortFunc(runs, func(x, y run) int { return cmp.Or(cmp.Compare(x.blocks, y.blocks), cmp.Compare(x.seq, y.seq)) })
		a, b := runs[0], runs[1]
		m := a.blocks + b.blocks
		total += read(a) + read(b) + p.appendColumn(m) + time.Duration(m)*p.SortCPUPerRecord +
			p.discardColumn(a.blocks) + p.discardColumn(b.blocks)
		newest++
		runs = append(runs[2:], run{m, newest})
	}
	return total
}

// TokenCycle is the serial cost per emitted record in a token-ring merge of
// group width t. With keys in random order every second record on average
// comes from the other input, which costs one more hop that emits nothing.
// In a ring of two or more readers per input (t >= 4) the holder that emits
// receives the token and sends it to its successor; its record's send to a
// writer follows, off the token's path, and its next record is already in
// core (the column reader runs a run ahead), so no LFS call is on the path
// either. At t = 2 each input has one reader, its own successor: it gets the
// token back only after its own record's send and, once a run, the send and
// receive of its next read.
func (p Params) TokenCycle(t int) time.Duration {
	hop := p.RecvCPU + p.SendCPU + p.RemoteLatency
	if t > 2 {
		return hop + hop/2
	}
	self := p.RecvCPU + 2*p.SendCPU + p.msgCost()/tools.RunBlocks
	return self + hop/2
}

// WriterCycle is the per-record cost at one node of a merge group: its
// writer's share of a run append plus its reader's share of the track reads,
// which queue at the node's one LFS and disk. Both columns are long, so the
// run is one in their middle: it has an old tail to link, and its reads
// share their first and last track with the runs before and after it.
func (p Params) WriterCycle() time.Duration {
	read := p.lfsCall(0, true) + tools.RunBlocks*p.DiskLatency/time.Duration(p.BlocksPerTrack)
	return (read + p.appendRun(tools.RunBlocks)) / tools.RunBlocks
}

// MergePassTime predicts one merge pass over the whole file on p nodes:
// every record is emitted serially by the token but written by t-wide
// writer groups; each group of width t handles records*t/p records, and
// all p/t groups run in parallel, so per-group record count * the
// bottleneck cycle.
func (p Params) MergePassTime(records, procs, t int) time.Duration {
	perGroup := records * t / procs
	cycle := p.TokenCycle(t)
	if w := p.WriterCycle() / time.Duration(t); w > cycle {
		cycle = w
	}
	return time.Duration(perGroup) * cycle
}

// SortMergeTime predicts the whole merge phase: log2(procs) passes, each
// followed by every node discarding its column of the pass's input.
func (p Params) SortMergeTime(records, procs int) time.Duration {
	var total time.Duration
	for t := 2; t <= procs; t *= 2 {
		total += p.MergePassTime(records, procs, t) + p.discardColumn(ceilDiv(records, procs))
	}
	return total
}

// MergeSaturationWidth is the paper's parallelism bound for the merge: the
// group width t at which the serial token cycle overtakes the parallel
// writer cycle — beyond it extra writers no longer help a group ("with
// sufficiently large p, the token will eventually be unable to complete a
// circuit of the nodes in the time it takes to read and write a record").
// A group is at least two wide.
func (p Params) MergeSaturationWidth() int {
	t := 2
	for p.WriterCycle()/time.Duration(t) > p.TokenCycle(t) {
		t++
	}
	return t
}
