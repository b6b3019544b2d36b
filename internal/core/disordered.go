package core

import (
	"fmt"

	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// Disordered files: "Our prototype implementation supports an explicit
// linked-list representation of files that permits arbitrary scattering of
// blocks at the expense of very slow random access" (Section 3).
//
// Each block's Bridge header carries the location (node, local block) of
// the next block; the directory entry holds the chain's endpoints and the
// per-node allocation counters. Sequential access follows the chain at one
// LFS read per block (the server's cursor remembers its position); random
// access to block n walks n+1 links from the head.

// scatterNode picks an arbitrary-but-deterministic node for the next block
// of a disordered file (splitmix64 over file id and position).
func scatterNode(fileID uint32, blockNum int64, p int) int {
	x := uint64(fileID)<<32 ^ uint64(blockNum)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(p))
}

// lfsReadLoc reads the block at an explicit (node, local) location: the
// single-block read's halves, aimed by the chain instead of a layout.
func (s *Server) lfsReadLoc(p sim.Proc, ent *dirent, node msg.NodeID, local uint32) (BlockHeader, []byte, error) {
	req := lfs.ReadReq{FileID: ent.meta.LFSFileID, BlockNum: local, Hint: ent.hintFor(node)}
	c, err := s.lfsStart(node, lfs.PortName, req)
	if err != nil {
		return BlockHeader{}, nil, err
	}
	return s.lfsReadFinish(p, ent, -1, c) // the chain, not a global number, locates the block
}

// lfsWriteLoc writes the block of header h and payload at an explicit
// (node, local) location.
func (s *Server) lfsWriteLoc(p sim.Proc, ent *dirent, node msg.NodeID, local uint32, h BlockHeader, payload []byte) error {
	req := lfs.WriteReq{FileID: ent.meta.LFSFileID, BlockNum: local, Head: headOf(h, len(payload)), Data: payload, Hint: ent.hintFor(node)}
	c, err := s.lfsStart(node, lfs.PortName, req)
	if err != nil {
		return err
	}
	return s.lfsWriteFinish(p, ent, c)
}

// appendDisordered adds a block to the chain: write the new block, then
// rewrite the old tail to point at it.
func (s *Server) appendDisordered(p sim.Proc, ent *dirent, payload []byte) error {
	ci := ent.meta.Chain
	if ci == nil {
		return fmt.Errorf("%w: disordered file without chain state", ErrBadArg)
	}
	idx := scatterNode(ent.meta.FileID, ent.meta.Blocks, len(ent.meta.Nodes))
	local := uint32(ci.LocalCounts[idx])
	h := BlockHeader{FileID: ent.meta.FileID, GlobalBlock: ent.meta.Blocks, P: uint16(ent.meta.Spec.P)}
	if err := s.lfsWriteLoc(p, ent, ent.meta.Nodes[idx], local, h, payload); err != nil {
		return err
	}
	if ent.meta.Blocks == 0 {
		ci.HeadNode, ci.HeadLocal = uint16(idx), local
	} else {
		// Read-modify-write the old tail's next pointer.
		tailNode := ent.meta.Nodes[ci.TailNode]
		h, tailPayload, err := s.lfsReadLoc(p, ent, tailNode, ci.TailLocal)
		if err != nil {
			return err
		}
		h.HasNext, h.NextNode, h.NextLocal = true, uint16(idx), local
		if err := s.lfsWriteLoc(p, ent, tailNode, ci.TailLocal, h, tailPayload); err != nil {
			return err
		}
	}
	ci.TailNode, ci.TailLocal = uint16(idx), local
	ci.LocalCounts[idx]++
	ent.meta.Blocks++
	return nil
}

// chainLoc is a position in a disordered chain.
type chainLoc struct {
	node  uint16
	local uint32
}

// readChainAt walks the chain from the head to block n — the "very slow
// random access" — returning the block and the location of its successor.
func (s *Server) readChainAt(p sim.Proc, ent *dirent, n int64) (payload []byte, next chainLoc, hasNext bool, err error) {
	ci := ent.meta.Chain
	if ci == nil {
		return nil, chainLoc{}, false, fmt.Errorf("%w: disordered file without chain state", ErrBadArg)
	}
	if n < 0 || n >= ent.meta.Blocks {
		return nil, chainLoc{}, false, fmt.Errorf("%w: block %d of %d", ErrEOF, n, ent.meta.Blocks)
	}
	loc := chainLoc{node: ci.HeadNode, local: ci.HeadLocal}
	for i := int64(0); ; i++ {
		pl, nx, has, err := s.readChainBlock(p, ent, loc)
		if err != nil {
			return nil, chainLoc{}, false, err
		}
		if i == n {
			return pl, nx, has, nil
		}
		if !has {
			return nil, chainLoc{}, false, fmt.Errorf("%w: chain of %s ends at block %d, expected %d",
				ErrBadBlock, ent.meta.Name, i, ent.meta.Blocks)
		}
		loc = nx
	}
}

// readChainBlock reads one chain block at loc.
func (s *Server) readChainBlock(p sim.Proc, ent *dirent, loc chainLoc) (payload []byte, next chainLoc, hasNext bool, err error) {
	if int(loc.node) >= len(ent.meta.Nodes) {
		return nil, chainLoc{}, false, fmt.Errorf("%w: chain node %d out of range", ErrBadBlock, loc.node)
	}
	h, pl, err := s.lfsReadLoc(p, ent, ent.meta.Nodes[loc.node], loc.local)
	if err != nil {
		return nil, chainLoc{}, false, err
	}
	return pl, chainLoc{node: h.NextNode, local: h.NextLocal}, h.HasNext, nil
}

// overwriteDisordered rewrites block n's payload in place, preserving its
// chain links. It walks to the block first.
func (s *Server) overwriteDisordered(p sim.Proc, ent *dirent, n int64, payload []byte) error {
	ci := ent.meta.Chain
	loc := chainLoc{node: ci.HeadNode, local: ci.HeadLocal}
	for i := int64(0); i < n; i++ {
		_, nx, has, err := s.readChainBlock(p, ent, loc)
		if err != nil {
			return err
		}
		if !has {
			return fmt.Errorf("%w: chain of %s ends at block %d", ErrBadBlock, ent.meta.Name, i)
		}
		loc = nx
	}
	h, _, err := s.lfsReadLoc(p, ent, ent.meta.Nodes[loc.node], loc.local)
	if err != nil {
		return err
	}
	h.GlobalBlock = n
	return s.lfsWriteLoc(p, ent, ent.meta.Nodes[loc.node], loc.local, h, payload)
}
