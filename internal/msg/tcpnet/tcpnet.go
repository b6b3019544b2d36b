// Package tcpnet realizes the Bridge message layer over real TCP sockets,
// backing the paper's remark that the message-passing design "could be
// realized equally well on any local area network". Each Peer hosts the
// ports of one or more nodes and routes messages to remote peers over TCP
// streams of frames: a frame is its length, then the message encoded with
// the protocols' one codec (package wire).
//
// No runtime here runs on the wall clock, so nothing deploys over tcpnet:
// it remains only as the target of the benchmark's tcpnet.rpc probe, and
// the simulated in-process network (package msg) carries every experiment.
// A message crosses to another peer only if its body is one the LFS,
// agent, Bridge Server or consensus tables declare; lfs.SpawnReq, whose
// worker is a func, has no encoding and is refused.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"bridge/internal/core"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/msg/wire"
	"bridge/internal/raft"
)

// wireMsg is a frame's content: the destination, then the message, whose
// body the codec encodes as its index among the bodies, then its fields.
type wireMsg struct {
	To  msg.Addr
	Msg msg.Message
}

// codec encodes a wireMsg and every body of the Bridge Server's table (with
// the job one-ways), the LFS server's and node agent's (with the bare
// status that answers a request no table declares) and the consensus
// protocol's.
var codec = wire.NewCodec(append(append(append([]any{wireMsg{}}, core.Bodies()...), lfs.Bodies()...), raft.Bodies()...))

// maxFrame bounds a frame, so that a corrupt length is not an allocation.
const maxFrame = 64 << 20

// ErrClosed is returned after a Peer has been closed.
var ErrClosed = errors.New("tcpnet: peer closed")

// ErrNoRoute is returned when no route is known for the destination node.
var ErrNoRoute = errors.New("tcpnet: no route to node")

// Port is a receive endpoint hosted by a Peer.
type Port struct {
	addr msg.Addr
	ch   chan *msg.Message
	once sync.Once
	done chan struct{}
}

// Addr returns the port's address.
func (p *Port) Addr() msg.Addr { return p.addr }

// Recv blocks until a message arrives; ok is false once the port (or its
// peer) is closed.
func (p *Port) Recv() (*msg.Message, bool) {
	select {
	case m, ok := <-p.ch:
		return m, ok
	case <-p.done:
		// Drain anything already queued before reporting closure.
		select {
		case m, ok := <-p.ch:
			return m, ok
		default:
			return nil, false
		}
	}
}

// Close closes the port.
func (p *Port) Close() { p.once.Do(func() { close(p.done) }) }

// Peer hosts ports and exchanges messages with other peers.
type Peer struct {
	listener net.Listener

	mu      sync.Mutex
	ports   map[msg.Addr]*Port
	routes  map[msg.NodeID]string
	conns   map[string]*outConn
	inbound map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

type outConn struct {
	mu  sync.Mutex
	buf []byte // the last frame sent, reused by the next
	c   net.Conn
}

// Listen starts a peer on the given TCP address ("127.0.0.1:0" for an
// ephemeral port).
func Listen(addr string) (*Peer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	p := &Peer{
		listener: l,
		ports:    make(map[msg.Addr]*Port),
		routes:   make(map[msg.NodeID]string),
		conns:    make(map[string]*outConn),
		inbound:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the peer's listen address.
func (p *Peer) Addr() string { return p.listener.Addr().String() }

// AddRoute declares that the given node's ports are hosted by the peer at
// hostport.
func (p *Peer) AddRoute(node msg.NodeID, hostport string) {
	p.mu.Lock()
	p.routes[node] = hostport
	p.mu.Unlock()
}

// NewPort registers a local port. It panics on duplicates, which are always
// wiring bugs.
func (p *Peer) NewPort(addr msg.Addr) *Port {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.ports[addr]; dup {
		panic(fmt.Sprintf("tcpnet: duplicate port %v", addr))
	}
	port := &Port{addr: addr, ch: make(chan *msg.Message, 64), done: make(chan struct{})}
	p.ports[addr] = port
	return port
}

// Send delivers m to the port at to, locally or across the network.
func (p *Peer) Send(to msg.Addr, m *msg.Message) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if port, ok := p.ports[to]; ok {
		p.mu.Unlock()
		return deliver(port, m)
	}
	route, ok := p.routes[to.Node]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoRoute, to)
	}
	conn, err := p.dial(route)
	if err != nil {
		return err
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	frame, err := codec.Append(append(conn.buf[:0], 0, 0, 0, 0), wireMsg{To: to, Msg: *m})
	if err == nil && len(frame) > 4+maxFrame {
		err = fmt.Errorf("a frame of %d bytes exceeds %d", len(frame)-4, maxFrame)
	}
	if err != nil {
		return fmt.Errorf("tcpnet: sending to %v: %w", to, err)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	conn.buf = frame
	if _, err := conn.c.Write(frame); err != nil {
		// Drop the broken connection; the next send re-dials.
		p.mu.Lock()
		delete(p.conns, route)
		p.mu.Unlock()
		conn.c.Close()
		return fmt.Errorf("tcpnet: sending to %s: %w", route, err)
	}
	return nil
}

func deliver(port *Port, m *msg.Message) error {
	select {
	case <-port.done:
		return nil // dropped, like a dead node
	default:
	}
	select {
	case port.ch <- m:
		return nil
	case <-port.done:
		return nil
	}
}

func (p *Peer) dial(route string) (*outConn, error) {
	p.mu.Lock()
	if c, ok := p.conns[route]; ok {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	c, err := net.Dial("tcp", route)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dialing %s: %w", route, err)
	}
	oc := &outConn{c: c}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return nil, ErrClosed
	}
	if existing, ok := p.conns[route]; ok {
		c.Close()
		return existing, nil
	}
	p.conns[route] = oc
	return oc, nil
}

func (p *Peer) accept() {
	defer p.wg.Done()
	for {
		c, err := p.listener.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return
		}
		p.inbound[c] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serveConn(c)
	}
}

func (p *Peer) serveConn(c net.Conn) {
	defer p.wg.Done()
	defer func() {
		c.Close()
		p.mu.Lock()
		delete(p.inbound, c)
		p.mu.Unlock()
	}()
	r := bufio.NewReader(c)
	var hdr [4]byte
	var buf []byte // reused: a decoded message aliases none of it
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return
		}
		body, err := codec.Decode(buf)
		wm, ok := body.(wireMsg)
		if err != nil || !ok {
			return // a peer that sends what it cannot mean is cut off
		}
		p.mu.Lock()
		port, ok := p.ports[wm.To]
		p.mu.Unlock()
		if ok {
			m := wm.Msg
			_ = deliver(port, &m)
		}
		// Unknown destinations drop silently, like the simulated net.
	}
}

// Close shuts the peer down: the listener stops, connections close, and
// local ports unblock.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := p.conns
	p.conns = map[string]*outConn{}
	ports := p.ports
	inbound := make([]net.Conn, 0, len(p.inbound))
	for c := range p.inbound { //bridgevet:allow maporder — real-network teardown; socket close order is not simulation state
		inbound = append(inbound, c)
	}
	p.mu.Unlock()
	err := p.listener.Close()
	for _, c := range conns {
		c.c.Close()
	}
	for _, c := range inbound {
		c.Close()
	}
	for _, port := range ports {
		port.Close()
	}
	p.wg.Wait()
	return err
}
