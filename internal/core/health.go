package core

import (
	"fmt"
	"sync"
	"time"

	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/sim"
)

// HealthState classifies a storage node as seen by the Bridge Server.
type HealthState uint8

const (
	// Healthy nodes answer heartbeats.
	Healthy HealthState = iota
	// Suspect nodes have missed at least SuspectAfter consecutive probes.
	Suspect
	// Dead nodes have missed DeadAfter consecutive probes; the server
	// fast-fails calls to them with ErrNodeDown instead of waiting out
	// LFSTimeout, which is what lets replica reads fail over quickly.
	Dead
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// HealthConfig enables the Bridge Server's heartbeat monitor: a process
// that pings every LFS node and tracks Healthy/Suspect/Dead transitions.
type HealthConfig struct {
	// Every is the heartbeat period (default 1s).
	Every time.Duration
	// Timeout bounds each ping (default 200ms).
	Timeout time.Duration
	// SuspectAfter and DeadAfter are the consecutive missed probes after
	// which a node becomes Suspect (default 1) and Dead (default 3). A
	// full-timeout LFS call also counts as a missed probe.
	SuspectAfter int
	DeadAfter    int
}

func (h HealthConfig) applyDefaults() HealthConfig {
	if h.Every == 0 {
		h.Every = time.Second
	}
	if h.Timeout == 0 {
		h.Timeout = 200 * time.Millisecond
	}
	if h.SuspectAfter == 0 {
		h.SuspectAfter = 1
	}
	if h.DeadAfter == 0 {
		h.DeadAfter = 3
	}
	return h
}

// NodeHealth pairs a node with its state, as reported by Client.Health.
type NodeHealth struct {
	Node  msg.NodeID
	State HealthState
}

// healthTracker is shared by the server process (fast-fail routing and
// passive timeout reports) and the monitor process, hence the mutex.
type healthTracker struct {
	cfg    HealthConfig
	mu     sync.Mutex
	missed map[msg.NodeID]int
	states map[msg.NodeID]HealthState
}

func newHealthTracker(cfg HealthConfig) *healthTracker {
	return &healthTracker{
		cfg:    cfg.applyDefaults(),
		missed: make(map[msg.NodeID]int),
		states: make(map[msg.NodeID]HealthState),
	}
}

func (t *healthTracker) get(n msg.NodeID) HealthState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.states[n]
}

// report records one probe result and returns the node's new state and
// whether it changed.
func (t *healthTracker) report(n msg.NodeID, ok bool) (HealthState, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.states[n]
	if ok {
		t.missed[n] = 0
		t.states[n] = Healthy
		return Healthy, old != Healthy
	}
	t.missed[n]++
	s := Healthy
	switch {
	case t.missed[n] >= t.cfg.DeadAfter:
		s = Dead
	case t.missed[n] >= t.cfg.SuspectAfter:
		s = Suspect
	}
	t.states[n] = s
	return s, s != old
}

func (t *healthTracker) snapshot(nodes []msg.NodeID) []NodeHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeHealth, len(nodes))
	for i, n := range nodes {
		out[i] = NodeHealth{Node: n, State: t.states[n]}
	}
	return out
}

// reportProbe folds a probe result into the tracker and instruments
// transitions. now is the virtual time for the trace event.
func (s *Server) reportProbe(now time.Duration, n msg.NodeID, ok bool) {
	if s.health == nil {
		return
	}
	state, changed := s.health.report(n, ok)
	if !changed {
		return
	}
	s.m.healthTransitions.Add(1)
	if r := s.net.Recorder(); r != nil {
		r.Event(now, 0, "health."+state.String(), fmt.Sprintf("node n%d", n))
	}
}

// startMonitor runs the heartbeat process; it exits when the stop port
// closes (Server.Stop).
func (s *Server) startMonitor(rt sim.Runtime) {
	cfg := s.health.cfg
	stop := s.net.NewPort(msg.Addr{Node: s.cfg.Node, Port: s.cfg.PortName + ".hmon.stop"})
	s.monStop = stop
	rt.Go(s.cfg.PortName+".hmon", func(p sim.Proc) {
		// No down-view: the monitor goes on asking a Dead node to see it recover.
		hc := &lfs.Client{C: msg.NewClient(p, s.net, s.cfg.Node, s.cfg.PortName+".hmon.cli"), Policy: lfs.Policy{Timeout: cfg.Timeout}}
		defer hc.C.Close()
		for {
			for _, n := range s.nodes {
				// A node that answers but could not boot its volume fails
				// the ping with a status: it is as down as a silent one.
				err := hc.Ping(n)
				s.reportProbe(p.Now(), n, err == nil)
			}
			if _, ok, timedOut := stop.RecvTimeout(p, cfg.Every); !timedOut && !ok {
				return
			}
		}
	})
}
