package lfs

import (
	"errors"
	"time"

	"bridge/internal/efs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// The one failure rule for a call to a storage node, whoever makes it — the
// Bridge Server, a tool, a node agent's tree forward, the health monitor, a
// shutdown sync: fast-fail on a node the caller's down-view names, a bounded
// await, abandon in flight, discard on give-up. Nothing outside this file and
// internal/msg waits on a msg.Client reply (bridgevet's untimedwait).

// DefaultTimeout bounds a call when its caller sets no bound of its own; one
// of fixed size takes well under a second (a run: 170 ms on 15 ms disks).
const DefaultTimeout = 60 * time.Second

// blockAccess is the bound's allowance per block a call walks (a delete walks
// its file's chain, a check every file's): on a fragmented volume each block
// is a disk access, 15 ms on the paper's disk, and this is four.
const blockAccess = 60 * time.Millisecond

// Policy is a Client's failure rule, built from what its caller already has:
// a per-call bound (DefaultTimeout when zero) and, optionally, a view of which
// nodes are down (an error for a down node) with the period to consult it at.
type Policy struct {
	Timeout time.Duration
	Down    func(msg.NodeID) error
	Every   time.Duration
}

// Client talks to LFS servers and node agents under its Policy. It tracks
// nothing else: hints are the caller's business, as in the stateless protocol.
type Client struct {
	C *msg.Client
	Policy
}

// Call is a started call awaiting its reply.
type Call struct {
	Node msg.NodeID
	ID   uint64
}

// NewClient creates an LFS client for a process homed on the given node, with
// the default policy: DefaultTimeout and no down-view.
func NewClient(proc sim.Proc, net *msg.Network, node msg.NodeID, name string) *Client {
	return &Client{C: msg.NewClient(proc, net, node, name)}
}

// Start fails at once on a node the down-view names, and otherwise sends the
// request, priced by WireSize, without waiting for its reply.
func (c *Client) Start(to msg.Addr, body any) (Call, error) {
	if c.Down != nil {
		if err := c.Down(to.Node); err != nil {
			return Call{}, err
		}
	}
	id, err := c.C.Start(to, body, WireSize(body))
	return Call{Node: to.Node, ID: id}, err
}

// Await waits up to the bound for a started call's reply. With a down-view it
// waits one period at a time and abandons the call with the view's error once
// the node is named, so a call in flight when its node fails costs the
// detection time, not the bound. A call given up on is discarded.
func (c *Client) Await(call Call) (*msg.Message, error) { return c.AwaitWalk(call, 0) }

// AwaitWalk is Await for a call that walks up to blocks chained blocks on its
// node: the bound grows by blockAccess for each.
func (c *Client) AwaitWalk(call Call, blocks int64) (*msg.Message, error) {
	left := c.Timeout
	if left == 0 {
		left = DefaultTimeout
	}
	left += time.Duration(blocks) * blockAccess
	every := left
	if c.Down != nil && c.Every > 0 {
		every = c.Every
	}
	for ; ; left -= every {
		m, err := c.C.AwaitTimeout(call.ID, min(left, every))
		if !errors.Is(err, msg.ErrTimeout) {
			return m, err
		}
		if c.Down != nil {
			if derr := c.Down(call.Node); derr != nil {
				c.C.Discard(call.ID)
				return nil, derr
			}
		}
		if left <= every {
			c.C.Discard(call.ID)
			return nil, err
		}
	}
}

// Poll is Await without the wait: the reply if it has already arrived, or ok
// false at no virtual time. A miss leaves the call to a later Poll or Await.
func (c *Client) Poll(call Call) (*msg.Message, bool) { return c.C.TryAwait(call.ID) }

// Discard abandons a started call nobody will await.
func (c *Client) Discard(call Call) { c.C.Discard(call.ID) }

// lfsAddr returns the LFS port of a node.
func lfsAddr(node msg.NodeID) msg.Addr { return msg.Addr{Node: node, Port: PortName} }

// Reply ends a call: the transport error, or else the reply as the kind T the
// call expects with its status as an error. A node whose volume did not boot
// answers every request with a bare status: its failure, not a panic.
func Reply[T msg.Reply](m *msg.Message, err error) (T, error) {
	r, st, err := msg.ReplyAs[T](m, err)
	if err == nil {
		err = Err(st)
	}
	return r, err
}

// call is a Start and an AwaitWalk back to back on the node's LFS port.
func call[T msg.Reply](c *Client, node msg.NodeID, body any, walk int64) (T, error) {
	var m *msg.Message
	pc, err := c.Start(lfsAddr(node), body)
	if err == nil {
		m, err = c.AwaitWalk(pc, walk)
	}
	return Reply[T](m, err)
}

// Create registers a file on the target node.
func (c *Client) Create(node msg.NodeID, fileID uint32) error {
	_, err := call[CreateResp](c, node, CreateReq{FileID: fileID}, 0)
	return err
}

// Delete removes a file of at most blocks blocks on the target node, returning
// blocks freed. fast frees through the bitmap only, with no per-block
// flag-clear rewrite — the mode the parallel delete tool uses.
func (c *Client) Delete(node msg.NodeID, fileID uint32, blocks int64, fast bool) (int, error) {
	r, err := call[DeleteResp](c, node, DeleteReq{FileID: fileID, Fast: fast}, blocks)
	return r.Freed, err
}

// Read reads a block; addr is the returned hint for the next call.
func (c *Client) Read(node msg.NodeID, fileID, blockNum uint32, hint int32) (data []byte, addr int32, err error) {
	req := ReadReq{FileID: fileID, BlockNum: blockNum, Hint: hint}
	r, err := call[ReadResp](c, node, req, 0)
	return r.Data, r.Addr, err
}

// Write writes a block; addr is the returned hint.
func (c *Client) Write(node msg.NodeID, fileID, blockNum uint32, data []byte, hint int32) (int32, error) {
	req := WriteReq{FileID: fileID, BlockNum: blockNum, Data: data, Hint: hint}
	r, err := call[WriteResp](c, node, req, 0)
	return r.Addr, err
}

// ReadVec reads a run of blocks in one request; results come back per
// block, in request order.
func (c *Client) ReadVec(node msg.NodeID, fileID uint32, blocks []uint32, hint int32) ([]VecRead, error) {
	req := ReadVecReq{FileID: fileID, Blocks: blocks, Hint: hint}
	r, err := call[ReadVecResp](c, node, req, 0)
	return r.Blocks, err
}

// WriteVec writes a run of blocks in one request; results come back per
// block, in request order.
func (c *Client) WriteVec(node msg.NodeID, fileID uint32, blocks []VecWrite, hint int32) ([]VecWritten, error) {
	req := WriteVecReq{FileID: fileID, Blocks: blocks, Hint: hint}
	r, err := call[WriteVecResp](c, node, req, 0)
	return r.Blocks, err
}

// Stat returns a file's directory information.
func (c *Client) Stat(node msg.NodeID, fileID uint32) (efs.FileInfo, error) {
	r, err := call[StatResp](c, node, StatReq{FileID: fileID}, 0)
	return r.Info, err
}

// Ping is the health monitor's heartbeat: nil if the node answers and its
// volume booted.
func (c *Client) Ping(node msg.NodeID) error {
	_, err := call[PingResp](c, node, PingReq{}, 0)
	return err
}

// Sync flushes the node's metadata.
func (c *Client) Sync(node msg.NodeID) error {
	_, err := call[SyncResp](c, node, SyncReq{}, 0)
	return err
}

// Usage returns the node's capacity and free space in blocks.
func (c *Client) Usage(node msg.NodeID) (total, free int, err error) {
	r, err := call[UsageResp](c, node, UsageReq{}, 0)
	return r.TotalBlocks, r.FreeBlocks, err
}
