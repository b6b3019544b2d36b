package tools

import (
	"fmt"

	"bridge/internal/core"
	"bridge/internal/distrib"
	"bridge/internal/sim"
)

// Transform is a one-to-one block filter: it receives a block's payload and
// returns the replacement payload (same record count and order, any
// content). The paper: "The while loop in ecopy could contain any
// transformation on the blocks of data that preserves their number and
// order."
type Transform func(globalBlock int64, payload []byte) []byte

// CopyStats reports what a copy moved.
type CopyStats struct {
	Blocks int64
}

// Copy copies src to a new file dst as a Bridge tool: one ecopy worker per
// node moves the node's column locally, so the whole copy runs in
// O(n/p + log p) instead of a conventional file system's O(n).
func Copy(pc sim.Proc, c *core.Client, src, dst string) (CopyStats, error) {
	return Filter(pc, c, src, dst, nil)
}

// Filter is Copy with a per-block transformation (nil means verbatim).
// Character translation, encryption, and lexical analysis on fixed-length
// lines are all instances.
func Filter(pc sim.Proc, c *core.Client, src, dst string, f Transform) (CopyStats, error) {
	meta, err := openMeta(c, src)
	if err != nil {
		return CopyStats{}, err
	}
	if meta.Spec.Kind != distrib.RoundRobin {
		return CopyStats{}, fmt.Errorf("tools: copy requires round-robin placement, %s is %v", src, meta.Spec.Kind)
	}
	// Create the destination with the same interleaving, then open it to
	// learn its structure — the exact call sequence of section 5.1.
	dstMeta, err := c.CreateSpec(dst, meta.Spec, false)
	if err != nil {
		return CopyStats{}, fmt.Errorf("tools: creating %s: %w", dst, err)
	}

	results, err := RunOnNodes(pc, c.Msg().Net(), meta.Nodes, "ecopy", func(ctx *WorkerCtx) (any, error) {
		return ecopy(ctx, meta, dstMeta, f)
	})
	if err != nil {
		return CopyStats{}, err
	}
	var total int64
	for _, r := range results {
		total += r.(int64)
	}
	if err := refreshSize(c, dst, total); err != nil {
		return CopyStats{}, err
	}
	return CopyStats{Blocks: total}, nil
}

// ecopy is the per-node worker: read local block, transform, write local
// block, until the local column is exhausted. It ignores the Bridge headers
// in the blocks it copies: since the header "pointers" are
// block-number/LFS-instance pairs, they remain valid in the new file.
func ecopy(ctx *WorkerCtx, src, dst core.Meta, f Transform) (int64, error) {
	layout, err := src.Layout()
	if err != nil {
		return 0, err
	}
	rd := newColReader(ctx.LFS, ctx.Node, src.LFSFileID, src.LocalBlocks(ctx.Index))
	defer rd.stop()
	wr := newColWriter(ctx.LFS, ctx.Node, dst.LFSFileID)
	for {
		raw, j, err := rd.next()
		if err != nil {
			return j, fmt.Errorf("ecopy read: %w", err)
		}
		if raw == nil {
			break
		}
		if f != nil {
			h, payload, err := core.DecodeBlock(raw)
			if err != nil {
				return j, fmt.Errorf("ecopy decode %d: %w", j, err)
			}
			raw = core.EncodeBlock(h, f(layout.GlobalFor(ctx.Index, j), payload))
		}
		if err := wr.put(raw); err != nil {
			return j, fmt.Errorf("ecopy write: %w", err)
		}
	}
	if err := wr.flush(); err != nil {
		return rd.pos, fmt.Errorf("ecopy write: %w", err)
	}
	return rd.pos, nil
}

// Standard one-to-one filters.

// ToUpper translates lowercase ASCII to uppercase (character translation).
func ToUpper(_ int64, payload []byte) []byte {
	out := make([]byte, len(payload))
	for i, b := range payload {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		out[i] = b
	}
	return out
}

// XORCipher returns an encryption filter with the given key. Applying it
// twice restores the original.
func XORCipher(key []byte) Transform {
	return func(_ int64, payload []byte) []byte {
		out := make([]byte, len(payload))
		for i, b := range payload {
			out[i] = b ^ key[i%len(key)]
		}
		return out
	}
}

// Rot13 rotates ASCII letters by 13.
func Rot13(_ int64, payload []byte) []byte {
	out := make([]byte, len(payload))
	for i, b := range payload {
		switch {
		case 'a' <= b && b <= 'z':
			b = 'a' + (b-'a'+13)%26
		case 'A' <= b && b <= 'Z':
			b = 'A' + (b-'A'+13)%26
		}
		out[i] = b
	}
	return out
}
