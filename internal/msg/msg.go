// Package msg is the message-passing layer of the Bridge reproduction — the
// analog of Chrysalis atomic queues on the BBN Butterfly. Every Bridge
// component (Bridge Server, LFS instances, tool workers) owns one or more
// Ports, addressed by (node, port-name), and exchanges Messages through a
// Network that models transfer latency, bandwidth, and per-message CPU cost.
//
// The cost model follows the paper's environment: messages between
// processes on the same node are cheap (shared-memory queues), messages
// between nodes pay a base latency plus a per-byte cost, and both sender and
// receiver pay a small CPU charge per message. The paper notes the design
// "could be realized equally well on any local area network"; another
// network is another set of these constants, measured in the same virtual
// time.
package msg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bridge/internal/obs"
	"bridge/internal/sim"
	"bridge/internal/stats"
)

// NodeID identifies a processor node. The Bridge Server conventionally runs
// on its own node; LFS instances run on nodes with disks.
type NodeID int

// Addr names a message port: a node plus a port name unique on that node.
type Addr struct {
	Node NodeID
	Port string
}

func (a Addr) String() string { return fmt.Sprintf("n%d/%s", a.Node, a.Port) }

// Message is the unit of communication. Body carries a protocol-specific
// request or response struct; Size is the payload size in bytes used by the
// bandwidth model (header overhead is added by the network).
type Message struct {
	From  Addr   // sender's reply address
	ReqID uint64 // request/response correlation; 0 for one-way messages
	Body  any
	Size  int

	// Trace and Span causally link the message to the client operation that
	// caused it: Trace is the end-to-end trace ID, Span the sender's span.
	// Zero when observability is off. Stamped by Client.Send/Start/Reply.
	Trace obs.TraceID
	Span  obs.SpanID
	// AvailAt is the virtual time the message became deliverable at its
	// destination (send time plus modeled transfer delay), stamped by the
	// network so receivers can attribute queue wait separately from service.
	AvailAt time.Duration
}

// Config holds the communication cost model.
type Config struct {
	// LocalLatency is the queue-transfer delay between processes on the
	// same node (shared-memory message).
	LocalLatency time.Duration
	// RemoteLatency is the base delay for a message crossing nodes.
	RemoteLatency time.Duration
	// BytesPerSec is the internode bandwidth; 0 means infinite.
	BytesPerSec int64
	// SendCPU and RecvCPU are per-message processor charges, paid by the
	// sending and receiving process respectively.
	SendCPU time.Duration
	RecvCPU time.Duration
	// HeaderBytes is added to every message's Size for the bandwidth
	// model.
	HeaderBytes int
}

// DefaultConfig approximates Butterfly-class communication circa 1988:
// millisecond-scale message handling and ~4 MB/s interconnect bandwidth.
func DefaultConfig() Config {
	return Config{
		LocalLatency:  100 * time.Microsecond,
		RemoteLatency: 500 * time.Microsecond,
		BytesPerSec:   4 << 20,
		SendCPU:       800 * time.Microsecond,
		RecvCPU:       800 * time.Microsecond,
		HeaderBytes:   32,
	}
}

// ErrNoPort is returned by Send when the destination address has never been
// registered. Sends to a closed (failed) port are dropped silently, like a
// network: the caller discovers the failure by timeout.
var ErrNoPort = errors.New("msg: no such port")

// Fate is a fault hook's verdict on one message transmission.
type Fate struct {
	// Drop discards the message silently; the sender cannot tell (as on a
	// lossy network).
	Drop bool
	// ExtraDelay is added to the modeled transfer delay.
	ExtraDelay time.Duration
	// Duplicates is the number of extra copies delivered (retransmission
	// artifacts); receivers must be prepared to dedup.
	Duplicates int
}

// FaultHook is consulted on every Send when installed with SetFault. It
// decides the fate of each message from the current simulated time and the
// endpoints; implementations must be deterministic under the virtual clock
// for chaos runs to replay exactly.
type FaultHook interface {
	Deliver(now time.Duration, from NodeID, to Addr, m *Message) Fate
}

// Network connects ports and applies the cost model.
type Network struct {
	rt    sim.Runtime
	cfg   Config
	stats *stats.Counters
	rec   *obs.Recorder // nil = observability off
	fault FaultHook     // nil = no fault injection
	seq   atomic.Uint64

	m netMetrics

	mu    sync.Mutex
	ports map[Addr]*Port
}

// netMetrics are the network's typed metric handles, registered once at
// construction.
type netMetrics struct {
	sent, local, remote          obs.Counter
	bytes, remoteBytes           obs.Counter
	faultDropped, faultDuplicate obs.Counter
}

// NewNetwork creates a network over the given runtime with the given cost
// model.
func NewNetwork(rt sim.Runtime, cfg Config) *Network {
	st := stats.New()
	reg := st.Registry()
	return &Network{rt: rt, cfg: cfg, stats: st, ports: make(map[Addr]*Port), m: netMetrics{
		sent:           reg.Counter("msg.sent", "msgs", "messages transmitted"),
		local:          reg.Counter("msg.local", "msgs", "messages between processes on the same node"),
		remote:         reg.Counter("msg.remote", "msgs", "messages crossing nodes"),
		bytes:          reg.Counter("msg.bytes", "bytes", "payload plus header bytes transmitted"),
		remoteBytes:    reg.Counter("msg.remote_bytes", "bytes", "bytes crossing the interconnect"),
		faultDropped:   reg.Counter("msg.fault_dropped", "msgs", "messages dropped by the fault injector"),
		faultDuplicate: reg.Counter("msg.fault_duplicated", "msgs", "duplicate deliveries injected by the fault injector"),
	}}
}

// Runtime returns the underlying runtime.
func (n *Network) Runtime() sim.Runtime { return n.rt }

// Config returns the cost model.
func (n *Network) Config() Config { return n.cfg }

// Stats returns the network's counter registry (messages, bytes, local vs
// remote traffic).
func (n *Network) Stats() *stats.Counters { return n.stats }

// Seq returns the next number of a sequence that starts at 1 on every
// network. A port name built from it is unique on the network and the same
// in every run of one seed, which a process-wide counter's is not.
func (n *Network) Seq() uint64 { return n.seq.Add(1) }

// SetRecorder installs the observability recorder (nil disables): every
// Send is recorded on it as a msg.send event, and layers built on the
// network fetch it with Recorder to open spans and record events on the
// same timeline. Set it before the simulation starts.
func (n *Network) SetRecorder(r *obs.Recorder) { n.rec = r }

// Recorder returns the installed span recorder (nil when observability is
// off; a nil *obs.Recorder is safe to use and records nothing).
func (n *Network) Recorder() *obs.Recorder { return n.rec }

// SetFault installs a fault hook consulted on every Send (nil removes it).
// Set it before the simulation starts.
func (n *Network) SetFault(h FaultHook) { n.fault = h }

// NewPort registers a port at addr. It panics if the address is already
// registered and still open, since that is always a wiring bug. A closed
// port (a failed node's service) may be re-registered: that is how a
// restarted node comes back, and the new port's Incarnation counts it.
func (n *Network) NewPort(addr Addr) *Port {
	n.mu.Lock()
	defer n.mu.Unlock()
	dup := n.ports[addr]
	if dup != nil && !dup.Closed() {
		panic(fmt.Sprintf("msg: duplicate port %v", addr))
	}
	p := &Port{net: n, addr: addr, q: n.rt.NewQueue(addr.String())}
	if dup != nil {
		p.incarnation = dup.incarnation + 1
	}
	n.ports[addr] = p
	return p
}

// lookup returns the port at addr, or nil.
func (n *Network) lookup(addr Addr) *Port {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ports[addr]
}

// delay returns the transfer delay for a message of the given payload size.
func (n *Network) delay(from NodeID, to NodeID, size int) time.Duration {
	if from == to {
		return n.cfg.LocalLatency
	}
	d := n.cfg.RemoteLatency
	if n.cfg.BytesPerSec > 0 {
		bytes := int64(size + n.cfg.HeaderBytes)
		d += time.Duration(bytes * int64(time.Second) / n.cfg.BytesPerSec)
	}
	return d
}

// Send transmits m from fromNode to the port at to. The calling process is
// charged SendCPU. Unknown destinations return ErrNoPort; closed
// destinations drop the message silently.
func (n *Network) Send(p sim.Proc, fromNode NodeID, to Addr, m *Message) error {
	if n.cfg.SendCPU > 0 {
		p.Sleep(n.cfg.SendCPU)
	}
	dst := n.lookup(to)
	if dst == nil {
		return fmt.Errorf("%w: %v", ErrNoPort, to)
	}
	n.m.sent.Add(1)
	n.m.bytes.Add(int64(m.Size + n.cfg.HeaderBytes))
	if fromNode == to.Node {
		n.m.local.Add(1)
	} else {
		n.m.remote.Add(1)
		n.m.remoteBytes.Add(int64(m.Size + n.cfg.HeaderBytes))
	}
	if n.rec != nil {
		n.rec.Event(n.rt.Now(), m.Trace, "msg.send", fmt.Sprintf("n%d -> %v %T (%dB)", fromNode, to, m.Body, m.Size))
	}
	d := n.delay(fromNode, to.Node, m.Size)
	if n.fault != nil {
		fate := n.fault.Deliver(n.rt.Now(), fromNode, to, m)
		if fate.Drop {
			n.m.faultDropped.Add(1)
			if n.rec != nil {
				n.rec.Event(n.rt.Now(), m.Trace, "net.drop", fmt.Sprintf("n%d -> %v %T", fromNode, to, m.Body))
			}
			return nil
		}
		d += fate.ExtraDelay
		m.AvailAt = n.rt.Now() + d
		for i := 0; i < fate.Duplicates; i++ {
			n.m.faultDuplicate.Add(1)
			dst.q.SendDelayed(m, d)
		}
	} else {
		m.AvailAt = n.rt.Now() + d
	}
	dst.q.SendDelayed(m, d)
	return nil
}

// QueueWait returns how long a just-received message waited in its
// destination queue beyond the modeled transfer delay: the gap between its
// arrival (AvailAt) and service start (now, minus the RecvCPU charge Recv
// already applied). Zero for unstamped messages.
func (n *Network) QueueWait(now time.Duration, m *Message) time.Duration {
	if m.AvailAt == 0 {
		return 0
	}
	w := now - n.cfg.RecvCPU - m.AvailAt
	if w < 0 {
		w = 0
	}
	return w
}

// Port is a receive endpoint.
type Port struct {
	net         *Network
	addr        Addr
	q           sim.Queue
	incarnation uint64 // how many ports held addr before this one

	mu     sync.Mutex
	closed bool
}

// Closed reports whether Close has been called on this port: the service
// behind it has crashed, failed or stopped.
func (p *Port) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Addr returns the port's address.
func (p *Port) Addr() Addr { return p.addr }

// Incarnation is how many earlier ports held the address, so a sender can
// tell its requests from a closed predecessor's.
func (p *Port) Incarnation() uint64 { return p.incarnation }

// QueueLen returns the number of messages waiting in the port's queue —
// the per-node queue-depth gauge sampled by the observability sampler.
func (p *Port) QueueLen() int { return p.q.Len() }

// Recv blocks until a message arrives; ok is false once the port is closed
// and drained. The calling process is charged RecvCPU per message.
func (p *Port) Recv(proc sim.Proc) (*Message, bool) {
	v, ok := p.q.Recv(proc)
	if !ok {
		return nil, false
	}
	if p.net.cfg.RecvCPU > 0 {
		proc.Sleep(p.net.cfg.RecvCPU)
	}
	return v.(*Message), true
}

// RecvTimeout is Recv with a deadline.
func (p *Port) RecvTimeout(proc sim.Proc, d time.Duration) (m *Message, ok bool, timedOut bool) {
	v, ok, timedOut := p.q.RecvTimeout(proc, d)
	if !ok {
		return nil, false, timedOut
	}
	if p.net.cfg.RecvCPU > 0 {
		proc.Sleep(p.net.cfg.RecvCPU)
	}
	return v.(*Message), true, false
}

// TryRecv returns a message if one is available without blocking.
func (p *Port) TryRecv(proc sim.Proc) (m *Message, ok bool) {
	v, ok, _ := p.q.TryRecv(proc)
	if !ok {
		return nil, false
	}
	if p.net.cfg.RecvCPU > 0 {
		proc.Sleep(p.net.cfg.RecvCPU)
	}
	return v.(*Message), true
}

// Close closes the port; pending receivers unblock and future sends to it
// are dropped. Used by the failure injector to "kill" a node's services.
// A closed port's address may be re-registered with NewPort, which is how
// a restarted node brings its services back.
func (p *Port) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.q.Close()
}
