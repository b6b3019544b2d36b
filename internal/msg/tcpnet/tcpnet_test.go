package tcpnet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bridge/internal/core"
	"bridge/internal/lfs"
	"bridge/internal/msg"
	"bridge/internal/msg/wire"
	"bridge/internal/msg/wire/wiretest"
	"bridge/internal/raft"
)

func twoPeers(t *testing.T) (*Peer, *Peer) {
	t.Helper()
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen a: %v", err)
	}
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatalf("Listen b: %v", err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	// Peer a hosts node 1; peer b hosts node 2.
	a.AddRoute(2, b.Addr())
	b.AddRoute(1, a.Addr())
	return a, b
}

func TestLocalDelivery(t *testing.T) {
	a, _ := twoPeers(t)
	port := a.NewPort(msg.Addr{Node: 1, Port: "svc"})
	if err := a.Send(port.Addr(), &msg.Message{Body: "hello"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, ok := port.Recv()
	if !ok || m.Body != "hello" {
		t.Fatalf("Recv = %v/%v", m, ok)
	}
}

func TestCrossPeerRoundTrip(t *testing.T) {
	a, b := twoPeers(t)
	server := b.NewPort(msg.Addr{Node: 2, Port: "echo"})
	client := a.NewPort(msg.Addr{Node: 1, Port: "cli"})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, ok := server.Recv()
			if !ok {
				return
			}
			reply := &msg.Message{From: server.Addr(), ReqID: m.ReqID, Body: core.StatResp{Meta: core.Meta{Name: "echo:" + m.Body.(core.StatReq).Name}}}
			if err := b.Send(m.From, reply); err != nil {
				t.Errorf("server send: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 10; i++ {
		req := &msg.Message{From: client.Addr(), ReqID: uint64(i + 1), Body: core.StatReq{Name: fmt.Sprintf("ping%d", i)}}
		if err := a.Send(server.Addr(), req); err != nil {
			t.Fatalf("client send: %v", err)
		}
		m, ok := client.Recv()
		if !ok {
			t.Fatal("client port closed")
		}
		if r, ok := m.Body.(core.StatResp); !ok || r.Meta.Name != fmt.Sprintf("echo:ping%d", i) || m.ReqID != uint64(i+1) {
			t.Fatalf("reply %d = %+v", i, m)
		}
	}
	server.Close()
	<-done
}

func TestProtocolBodiesOverWire(t *testing.T) {
	a, b := twoPeers(t)
	server := b.NewPort(msg.Addr{Node: 2, Port: lfs.PortName})
	client := a.NewPort(msg.Addr{Node: 1, Port: "cli"})

	go func() {
		m, ok := server.Recv()
		if !ok {
			return
		}
		req := m.Body.(lfs.ReadReq)
		resp := lfs.ReadResp{Data: []byte{byte(req.BlockNum), 2, 3}, Addr: 77}
		b.Send(m.From, &msg.Message{From: server.Addr(), ReqID: m.ReqID, Body: resp})
	}()

	req := lfs.ReadReq{FileID: 9, BlockNum: 5, Hint: -1}
	if err := a.Send(server.Addr(), &msg.Message{From: client.Addr(), ReqID: 1, Body: req}); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, ok := client.Recv()
	if !ok {
		t.Fatal("client port closed")
	}
	resp, isResp := m.Body.(lfs.ReadResp)
	if !isResp || resp.Addr != 77 || resp.Data[0] != 5 {
		t.Fatalf("reply = %+v", m.Body)
	}
}

func TestNoRoute(t *testing.T) {
	a, _ := twoPeers(t)
	err := a.Send(msg.Addr{Node: 42, Port: "x"}, &msg.Message{Body: "lost"})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Send = %v, want ErrNoRoute", err)
	}
}

func TestUnknownPortDropsSilently(t *testing.T) {
	a, b := twoPeers(t)
	// Node 2 routes to peer b, but the port does not exist there.
	if err := a.Send(msg.Addr{Node: 2, Port: "ghost"}, &msg.Message{Body: lfs.PingReq{}}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Existing traffic still flows afterwards.
	port := b.NewPort(msg.Addr{Node: 2, Port: "real"})
	if err := a.Send(port.Addr(), &msg.Message{Body: lfs.SyncReq{}}); err != nil {
		t.Fatalf("Send real: %v", err)
	}
	if m, ok := port.Recv(); !ok || m.Body != (lfs.SyncReq{}) {
		t.Fatalf("Recv = %v/%v", m, ok)
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	a, _ := twoPeers(t)
	port := a.NewPort(msg.Addr{Node: 1, Port: "svc"})
	done := make(chan bool)
	go func() {
		_, ok := port.Recv()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Recv returned ok after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := a.Send(port.Addr(), &msg.Message{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	a, _ := twoPeers(t)
	a.NewPort(msg.Addr{Node: 1, Port: "dup"})
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate port")
		}
	}()
	a.NewPort(msg.Addr{Node: 1, Port: "dup"})
}

// TestEveryProtocolBodyOverWire sends every body the command tables of the
// Bridge, LFS, node-agent and consensus protocols declare from one peer to
// another, as its zero value and as wiretest's filled sample, and requires
// the copy to equal it. lfs.SpawnReq, whose payload is a func, is refused at
// Send, as is a body no table declares; the connection carries on after.
func TestEveryProtocolBodyOverWire(t *testing.T) {
	all := append(append(core.Bodies(), lfs.Bodies()...), raft.Bodies()...)
	if len(all) < 80 {
		t.Fatalf("the tables declare only %d protocol bodies: %v", len(all), all)
	}

	a, b := twoPeers(t)
	sink := b.NewPort(msg.Addr{Node: 2, Port: "sink"})
	for _, body := range []any{lfs.SpawnReq{Name: "w"}, "an undeclared string"} {
		if err := a.Send(sink.Addr(), &msg.Message{ReqID: 1, Body: body}); !errors.Is(err, wire.ErrNoEncoding) {
			t.Errorf("Send(%T) = %v, want wire.ErrNoEncoding", body, err)
		}
	}
	for _, zero := range all {
		rt := reflect.TypeOf(zero)
		if rt == reflect.TypeOf(lfs.SpawnReq{}) {
			continue
		}
		for _, want := range []any{zero, wiretest.Sample(codec, rt)} {
			if err := a.Send(sink.Addr(), &msg.Message{ReqID: 1, Body: want}); err != nil {
				t.Errorf("%v: Send: %v", rt, err)
				continue
			}
			m, ok := sink.Recv()
			if !ok {
				t.Fatalf("%v: sink closed", rt)
			}
			if !reflect.DeepEqual(m.Body, want) {
				t.Errorf("%v crossed the wire as %+v, sent %+v", rt, m.Body, want)
			}
		}
	}
}
