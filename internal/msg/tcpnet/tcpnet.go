// Package tcpnet realizes the Bridge message layer over real TCP sockets,
// backing the paper's remark that the message-passing design "could be
// realized equally well on any local area network". Each Peer hosts the
// ports of one or more nodes and routes messages to remote peers over
// gob-encoded streams.
//
// No runtime here runs on the wall clock, so nothing deploys over tcpnet:
// it remains only as the target of the benchmark's tcpnet.rpc probe, and
// the simulated in-process network (package msg) carries every experiment.
// Message bodies must be gob-registered; RegisterTypes registers the LFS,
// agent, Bridge Server and consensus protocols.
package tcpnet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"

	"bridge/internal/core"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/raft"
)

// bodies is every message body the protocols send, read from their command
// tables: the Bridge Server's (with the job-transfer one-ways), the LFS
// server's and node agent's (with the bare status that answers a request no
// table declares) and the consensus protocol's. The one body gob cannot
// carry is lfs.SpawnReq, whose worker is a func: it is left out.
var bodies = func() []any {
	var out []any
	for _, v := range append(append(core.Bodies(), lfs.Bodies()...), raft.Bodies()...) {
		if _, spawn := v.(lfs.SpawnReq); !spawn {
			out = append(out, v)
		}
	}
	return out
}()

// RegisterTypes registers every protocol body with gob. Call once per
// process before sending.
func RegisterTypes() {
	registerOnce.Do(func() {
		for _, v := range bodies {
			gob.Register(v)
		}
	})
}

var registerOnce sync.Once

// wireMsg is the on-the-wire envelope.
type wireMsg struct {
	To  msg.Addr
	Msg msg.Message
}

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
	enc *gob.Encoder
	c   net.Conn
}

// Listen starts a peer on the given TCP address ("127.0.0.1:0" for an
// ephemeral port).
func Listen(addr string) (*Peer, error) {
	RegisterTypes()
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
	if err := conn.enc.Encode(wireMsg{To: to, Msg: *m}); err != nil {
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
	oc := &outConn{enc: gob.NewEncoder(c), c: c}
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
	dec := gob.NewDecoder(c)
	for {
		var wm wireMsg
		if err := dec.Decode(&wm); err != nil {
			return
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
