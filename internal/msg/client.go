package msg

import (
	"errors"
	"fmt"
	"time"

	"bridge/internal/obs"
	"bridge/internal/sim"
)

// ErrTimeout is returned by AwaitTimeout and CallTimeout when the deadline
// expires before the reply arrives — typically because the destination node
// has failed.
var ErrTimeout = errors.New("msg: call timed out")

// ErrClosed is returned when the client's reply port is closed while
// waiting, which happens on simulation shutdown or deadlock unwinding.
var ErrClosed = errors.New("msg: reply port closed")

// Client is an RPC endpoint for one process: a private reply port plus
// request/response correlation. A Client must only be used by the process
// that created it.
type Client struct {
	net     *Network
	node    NodeID
	port    *Port
	proc    sim.Proc
	nextReq uint64
	pending map[uint64]*Message
	// discard holds correlation ids the caller abandoned with Discard;
	// their replies are dropped on receipt instead of parked in pending.
	// Bounded by discardCap (FIFO eviction via discardQ) because an
	// abandoned request's reply often never arrives at all — the request
	// or reply was dropped by the network — and the entry would otherwise
	// leak forever.
	discard  map[uint64]struct{}
	discardQ []uint64

	// trace and span are the current observability context; every outgoing
	// message is stamped with them (see SetTrace). Zero when untraced.
	trace obs.TraceID
	span  obs.SpanID
}

// discardCap bounds the abandoned-request set. Evicting a live entry only
// matters if its reply later arrives, which then parks in pending like any
// other stale reply; the cap only needs to cover replies that may still be
// in flight.
const discardCap = 1024

// NewClient creates a client for proc, homed on the given node. The name
// must be unique on that node.
func NewClient(proc sim.Proc, net *Network, node NodeID, name string) *Client {
	return &Client{
		net:     net,
		node:    node,
		port:    net.NewPort(Addr{Node: node, Port: name}),
		proc:    proc,
		pending: make(map[uint64]*Message),
	}
}

// SetTrace sets the observability context stamped onto every subsequent
// outgoing message: the end-to-end trace ID and the caller's current span.
// Call SetTrace(0, 0) to clear it when the traced operation completes.
// Messages started under one context keep it even if the context changes
// before their replies arrive (an async prefetch stays attributed to the
// operation that started it).
func (c *Client) SetTrace(t obs.TraceID, s obs.SpanID) {
	c.trace, c.span = t, s
}

// Node returns the node the client is homed on.
func (c *Client) Node() NodeID { return c.node }

// Addr returns the client's reply address.
func (c *Client) Addr() Addr { return c.port.Addr() }

// Incarnation is the reply port's (see Port.Incarnation).
func (c *Client) Incarnation() uint64 { return c.port.Incarnation() }

// Proc returns the owning process.
func (c *Client) Proc() sim.Proc { return c.proc }

// Net returns the network.
func (c *Client) Net() *Network { return c.net }

// Send transmits a one-way message (ReqID 0); no reply is expected.
func (c *Client) Send(to Addr, body any, size int) error {
	return c.net.Send(c.proc, c.node, to, &Message{From: c.Addr(), Body: body, Size: size, Trace: c.trace, Span: c.span})
}

// Start sends a request and returns its correlation id without waiting for
// the reply; use Await to collect it. This is how the Bridge
// Server and tools overlap operations on many LFS instances.
func (c *Client) Start(to Addr, body any, size int) (uint64, error) {
	c.nextReq++
	id := c.nextReq
	err := c.net.Send(c.proc, c.node, to, &Message{From: c.Addr(), ReqID: id, Body: body, Size: size, Trace: c.trace, Span: c.span})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Discard abandons an outstanding request started with Start: a reply
// already parked in the pending set is dropped, and a future reply is
// dropped on receipt. Callers that start requests they may never await
// (an invalidated read-ahead prefetch, a retransmitted call's original)
// must discard them so stale replies cannot accumulate or be mistaken
// for current ones.
func (c *Client) Discard(id uint64) {
	if _, ok := c.pending[id]; ok {
		delete(c.pending, id)
		return
	}
	if c.discard == nil {
		c.discard = make(map[uint64]struct{})
	}
	if _, ok := c.discard[id]; ok {
		return
	}
	// Evict oldest-first past the cap; queue entries already resolved by a
	// reply (removed from the map in park) are skipped for free.
	for len(c.discard) >= discardCap && len(c.discardQ) > 0 {
		old := c.discardQ[0]
		c.discardQ = c.discardQ[1:]
		delete(c.discard, old)
	}
	c.discard[id] = struct{}{}
	c.discardQ = append(c.discardQ, id)
	if len(c.discardQ) >= 2*discardCap {
		// Compact queue slots whose entries a reply already resolved, so
		// the queue stays O(discardCap) even when replies do arrive.
		live := c.discardQ[:0]
		for _, q := range c.discardQ {
			if _, ok := c.discard[q]; ok {
				live = append(live, q)
			}
		}
		c.discardQ = live
	}
}

// Parked returns how many replies are held for a later Await and how many
// discarded ids still expect one: the two tables a caller that finishes or
// discards everything it starts leaves empty.
func (c *Client) Parked() (pending, discarded int) { return len(c.pending), len(c.discard) }

// park stores a reply for a later Await, unless its id was discarded.
func (c *Client) park(m *Message) {
	if _, dead := c.discard[m.ReqID]; dead {
		delete(c.discard, m.ReqID)
		return
	}
	c.pending[m.ReqID] = m
}

// Await blocks until the reply with the given correlation id arrives.
func (c *Client) Await(id uint64) (*Message, error) {
	if m, ok := c.pending[id]; ok {
		delete(c.pending, id)
		return m, nil
	}
	for {
		m, ok := c.port.Recv(c.proc)
		if !ok {
			return nil, ErrClosed
		}
		if m.ReqID == id {
			return m, nil
		}
		c.park(m)
	}
}

// TryAwait is Await without the wait: it returns the reply with the given
// correlation id if it has already arrived, and ok false otherwise — a miss
// costs no virtual time and allocates nothing. Like Await it takes off the
// port every message that has arrived ahead of the one it wants, parking
// replies to other requests and dropping replies to discarded ids, and each
// message it takes is charged RecvCPU; messages still in transit stay put.
func (c *Client) TryAwait(id uint64) (m *Message, ok bool) {
	if m, ok := c.pending[id]; ok {
		delete(c.pending, id)
		return m, true
	}
	for {
		m, ok := c.port.TryRecv(c.proc)
		if !ok {
			return nil, false
		}
		if m.ReqID == id {
			return m, true
		}
		c.park(m)
	}
}

// AwaitTimeout is Await with a deadline across the whole wait.
func (c *Client) AwaitTimeout(id uint64, d time.Duration) (*Message, error) {
	if m, ok := c.pending[id]; ok {
		delete(c.pending, id)
		return m, nil
	}
	deadline := c.proc.Now() + d
	for {
		remain := deadline - c.proc.Now()
		if remain < 0 {
			remain = 0
		}
		m, ok, timedOut := c.port.RecvTimeout(c.proc, remain)
		if timedOut {
			return nil, fmt.Errorf("%w: req %d", ErrTimeout, id)
		}
		if !ok {
			return nil, ErrClosed
		}
		if m.ReqID == id {
			return m, nil
		}
		c.park(m)
	}
}

// Call sends a request and blocks for its reply.
func (c *Client) Call(to Addr, body any, size int) (*Message, error) {
	id, err := c.Start(to, body, size)
	if err != nil {
		return nil, err
	}
	return c.Await(id)
}

// CallTimeout is Call with a deadline on the reply. The caller never sees
// the correlation id, so a call that times out is discarded here: its late
// reply is dropped on receipt instead of parked for nobody.
func (c *Client) CallTimeout(to Addr, body any, size int, d time.Duration) (*Message, error) {
	id, err := c.Start(to, body, size)
	if err != nil {
		return nil, err
	}
	m, err := c.AwaitTimeout(id, d)
	if errors.Is(err, ErrTimeout) {
		c.Discard(id)
	}
	return m, err
}

// Reply answers a received request, preserving its correlation id and
// trace context (the reply belongs to the request's trace).
func (c *Client) Reply(req *Message, body any, size int) error {
	return c.net.Send(c.proc, c.node, req.From, &Message{From: c.Addr(), ReqID: req.ReqID, Body: body, Size: size, Trace: req.Trace, Span: req.Span})
}

// Close closes the client's reply port.
func (c *Client) Close() { c.port.Close() }

// Handler processes one request in a Serve loop and returns the reply body
// and its wire size. Returning a nil body suppresses the automatic reply
// (the handler is then responsible for any response).
type Handler func(proc sim.Proc, req *Message) (body any, size int)

// Serve runs a request loop on port until the port closes: receive, handle,
// reply to req.From with the request's correlation id. Used by the LFS
// servers and the Bridge Server.
func Serve(proc sim.Proc, net *Network, node NodeID, port *Port, h Handler) {
	for {
		req, ok := port.Recv(proc)
		if !ok {
			return
		}
		body, size := h(proc, req)
		if body == nil {
			continue
		}
		// Replies to unknown/dead clients are dropped, as on a network.
		_ = net.Send(proc, node, req.From, &Message{
			From:  port.Addr(),
			ReqID: req.ReqID,
			Body:  body,
			Size:  size,
			Trace: req.Trace,
			Span:  req.Span,
		})
	}
}
