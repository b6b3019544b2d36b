package tools

import (
	"bytes"
	"fmt"
	"sort"

	"bridge/internal/core"
	"bridge/internal/sim"
)

// Match locates one occurrence of a grep pattern.
type Match struct {
	GlobalBlock int64
	Offset      int // byte offset of the match within the block payload
}

// GrepResult is the summary a grep tool returns: "By returning a small
// amount of information at completion time, we can also perform sequential
// searches."
type GrepResult struct {
	Matches []Match
	Blocks  int64 // blocks scanned
}

// Grep scans every block of the file for the byte pattern, in parallel on
// the LFS nodes, and returns all matches in global block order. Matches
// that straddle a block boundary are not detected, as with any
// fixed-length-record filter.
func Grep(pc sim.Proc, c *core.Client, name string, pattern []byte) (GrepResult, error) {
	if len(pattern) == 0 {
		return GrepResult{}, fmt.Errorf("tools: empty grep pattern")
	}
	meta, err := openMeta(c, name)
	if err != nil {
		return GrepResult{}, err
	}
	results, err := RunOnNodes(pc, c.Msg().Net(), meta.Nodes, "grep", func(ctx *WorkerCtx) (any, error) {
		return grepWorker(ctx, meta, pattern)
	})
	if err != nil {
		return GrepResult{}, err
	}
	var out GrepResult
	for _, r := range results {
		nr := r.(GrepResult)
		out.Matches = append(out.Matches, nr.Matches...)
		out.Blocks += nr.Blocks
	}
	sort.Slice(out.Matches, func(i, j int) bool {
		a, b := out.Matches[i], out.Matches[j]
		if a.GlobalBlock != b.GlobalBlock {
			return a.GlobalBlock < b.GlobalBlock
		}
		return a.Offset < b.Offset
	})
	return out, nil
}

// scanColumn hands fn the payload of every block of this node's column of
// the file, in order, with its local number: the loop of every tool that
// only reads.
func scanColumn(ctx *WorkerCtx, meta core.Meta, fn func(local int64, payload []byte)) (int64, error) {
	rd := newColReader(ctx.LFS, ctx.Node, meta.LFSFileID, meta.LocalBlocks(ctx.Index))
	defer rd.stop()
	for {
		raw, j, err := rd.next()
		if err != nil || raw == nil {
			return j, err
		}
		_, payload, err := core.DecodeBlock(raw)
		if err != nil {
			return j, fmt.Errorf("decode %d: %w", j, err)
		}
		fn(j, payload)
	}
}

func grepWorker(ctx *WorkerCtx, meta core.Meta, pattern []byte) (res GrepResult, err error) {
	layout, err := meta.Layout()
	if err != nil {
		return GrepResult{}, err
	}
	res.Blocks, err = scanColumn(ctx, meta, func(j int64, payload []byte) {
		global := layout.GlobalFor(ctx.Index, j)
		off := 0
		for {
			i := bytes.Index(payload[off:], pattern)
			if i < 0 {
				break
			}
			res.Matches = append(res.Matches, Match{GlobalBlock: global, Offset: off + i})
			off += i + 1
		}
	})
	if err != nil {
		return res, fmt.Errorf("grep: %w", err)
	}
	return res, nil
}

// WCResult is the summary-information tool's output.
type WCResult struct {
	Blocks int64
	Bytes  int64
	Words  int64
	Lines  int64
}

// WC counts bytes, whitespace-separated words, and newline-terminated lines
// across the whole file, in parallel on the LFS nodes. Word counts are
// computed per block, so a word straddling a block boundary counts twice —
// the usual caveat of fixed-length-record processing.
func WC(pc sim.Proc, c *core.Client, name string) (WCResult, error) {
	meta, err := openMeta(c, name)
	if err != nil {
		return WCResult{}, err
	}
	results, err := RunOnNodes(pc, c.Msg().Net(), meta.Nodes, "wc", func(ctx *WorkerCtx) (any, error) {
		return wcWorker(ctx, meta)
	})
	if err != nil {
		return WCResult{}, err
	}
	var out WCResult
	for _, r := range results {
		nr := r.(WCResult)
		out.Blocks += nr.Blocks
		out.Bytes += nr.Bytes
		out.Words += nr.Words
		out.Lines += nr.Lines
	}
	return out, nil
}

func wcWorker(ctx *WorkerCtx, meta core.Meta) (res WCResult, err error) {
	res.Blocks, err = scanColumn(ctx, meta, func(_ int64, payload []byte) {
		res.Bytes += int64(len(payload))
		res.Words += int64(len(bytes.Fields(payload)))
		res.Lines += int64(bytes.Count(payload, []byte{'\n'}))
	})
	if err != nil {
		return res, fmt.Errorf("wc: %w", err)
	}
	return res, nil
}
