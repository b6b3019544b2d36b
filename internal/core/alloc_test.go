//go:build !race

package core

import (
	"fmt"
	"testing"

	"bridge/internal/distrib"
	"bridge/internal/sim"
)

// TestAllocsScatter is test (f): a 3-item write scatter allocates no more
// than the three WriteAts it replaces. The file is left out under the race
// detector, whose instrumentation allocates (a build constraint and not
// israce.Enabled, because bridgevet loads this package's tests without
// build tags and would see both of israce's files).
func TestAllocsScatter(t *testing.T) {
	withCluster(t, fastCfg(4), func(p sim.Proc, cl *Cluster, c *Client) {
		items := make([]ScatterItem, 3)
		for f := range items {
			name := fmt.Sprintf("f%d", f)
			if _, err := c.CreateSpec(name, distrib.Spec{Start: f}, false); err != nil {
				t.Errorf("create: %v", err)
				return
			}
			if err := c.WriteAt(name, 0, payload(f)); err != nil {
				t.Errorf("WriteAt: %v", err)
				return
			}
			items[f] = ScatterItem{Name: name, BlockNum: 0, Write: true, Data: payload(f)}
		}
		single := testing.AllocsPerRun(200, func() {
			for _, it := range items {
				if err := c.WriteAt(it.Name, it.BlockNum, it.Data); err != nil {
					t.Errorf("WriteAt: %v", err)
				}
			}
		})
		scatter := testing.AllocsPerRun(200, func() {
			if res, err := c.Scatter(items); err != nil || res != nil {
				t.Errorf("Scatter: %v, %v", res, err)
			}
		})
		t.Logf("3-item write scatter %v objects, three WriteAts %v", scatter, single)
		if scatter > single {
			t.Errorf("a 3-item write scatter allocates %v objects, three WriteAts %v", scatter, single)
		}
	})
}

// boxed keeps a reply alive as Message.Body would; noErr is a success the
// compiler cannot see through.
var (
	boxed any
	noErr error
)

// TestAllocsBoxedReplies guards the representation of msg.Status. Every
// reply is boxed into Message.Body, so what a success costs there is paid on
// every call: an acknowledgement — a reply that is nothing but its status —
// must fit the interface word and allocate nothing, and a reply with a
// payload allocates only itself. A status of two words (a code beside a
// string, say) costs naive_write one allocation per op.
func TestAllocsBoxedReplies(t *testing.T) {
	data := payload(1)
	meta := Meta{Name: "f"}
	for _, tc := range []struct {
		name string
		box  func()
		want float64
	}{
		{"SeqWriteResp", func() { boxed = SeqWriteResp{Status: statusFor(noErr)} }, 0},
		{"RandWriteResp", func() { boxed = RandWriteResp{Status: statusFor(noErr)} }, 0},
		{"SeqReadResp", func() { boxed = SeqReadResp{Data: data, Status: statusFor(noErr)} }, 1},
		{"RandReadResp", func() { boxed = RandReadResp{Data: data, Status: statusFor(noErr)} }, 1},
		{"CreateResp", func() { boxed = CreateResp{Meta: meta, Status: statusFor(noErr)} }, 1},
	} {
		if got := testing.AllocsPerRun(100, tc.box); got != tc.want {
			t.Errorf("boxing a successful %s allocates %v objects, want %v", tc.name, got, tc.want)
		}
	}
}
