package fault_test

import (
	"bytes"
	"fmt"
	"testing"

	"bridge"
	"bridge/internal/chaosseed"
)

// corruptionSeed lets CI vary the chaos seed (BRIDGE_CHAOS_SEED) without a
// code change; the replay assertions hold for any seed. A test that fails
// under it prints the command that repeats it.
func corruptionSeed(t *testing.T) int64 {
	t.Helper()
	seed, _ := chaosseed.FromEnv(t, "BRIDGE_CHAOS_SEED", 7)
	chaosseed.Repro(t, "BRIDGE_CHAOS_SEED", seed, "./internal/fault/")
	return seed
}

func mirrorPayload(i int) []byte {
	b := make([]byte, bridge.PayloadBytes)
	for j := range b {
		b[j] = byte(i*29 + j*11)
	}
	return b
}

func parityPayload(i int) []byte {
	b := make([]byte, bridge.PayloadBytes)
	for j := range b {
		b[j] = byte(i*53 + j*13)
	}
	return b
}

// runCorruptionChaos boots a 4-node cluster with the background scrubber
// enabled, writes a mirrored file and a parity-protected file, silently
// flips bits in a dozen of their on-disk blocks (plus one misdirected
// write), and then drives the full recovery pipeline: a synchronous scrub
// sweep confirms every corruption, reads come back byte-correct via
// read-repair, Resilver/Rebuild heal the copies reads do not touch, and the
// run ends with a clean scrub and a clean fsck on every node. Returns the
// run's Chrome trace and the final contents for exact-replay assertions.
func runCorruptionChaos(t *testing.T, seed int64) (string, [][]byte) {
	t.Helper()
	const (
		p  = 4
		nm = 24 // mirrored blocks
		np = 18 // parity data blocks (6 stripes of 3)
	)
	inj := bridge.NewFaultInjector(seed)
	sys, err := bridge.New(bridge.Config{
		Nodes: p,
		Fault: inj,
		Scrub: &bridge.ScrubConfig{},
		Obs:   &bridge.ObsConfig{},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var insp bridge.Inspector
	var contents [][]byte
	err = sys.Run(func(s *bridge.Session) error {
		insp = s.Inspect()
		m, err := s.NewMirror("mf")
		if err != nil {
			return fmt.Errorf("NewMirror: %w", err)
		}
		for i := 0; i < nm; i++ {
			if err := m.Append(mirrorPayload(i)); err != nil {
				return fmt.Errorf("mirror append %d: %w", i, err)
			}
		}
		pf, err := s.NewParity("pf")
		if err != nil {
			return fmt.Errorf("NewParity: %w", err)
		}
		for i := 0; i < np; i++ {
			if err := pf.Append(parityPayload(i)); err != nil {
				return fmt.Errorf("parity append %d: %w", i, err)
			}
		}
		// Each node's data region fills sequentially from DataStart: first
		// the 12 mirror blocks the node holds (6 primary + 6 shadow,
		// interleaved in append order), then its 6 parity-file blocks (data
		// columns on nodes 0-2, the parity column on node 3). Flip bits in
		// two mirror blocks per node — offsets chosen so no logical block
		// loses both copies — and in one parity-file block per node, each
		// in a distinct stripe so reconstruction always has a full stripe.
		ds := s.Cluster().Nodes[0].FS().DataStart()
		rot := map[int][]int{
			0: {0, 3, 13}, // primary 0, shadow 7, parity data block 3 (stripe 1)
			1: {1, 6, 14}, // primary 1, shadow 12, parity data block 7 (stripe 2)
			2: {7, 2, 15}, // primary 14, shadow 5, parity data block 11 (stripe 3)
			3: {1, 8, 16}, // primary 3, shadow 18, parity column stripe 4
		}
		for node := 0; node < p; node++ {
			for _, off := range rot[node] {
				inj.Bitrot(fmt.Sprintf("disk%d", node), ds+off)
			}
		}
		// A full synchronous sweep per node: the rot is applied at the
		// first medium read, so the scrub both surfaces it and confirms it,
		// and invalidates the cached copies that were masking it.
		detected := 0
		for i := 0; i < p; i++ {
			rep, err := s.Scrub(i)
			if err != nil {
				return fmt.Errorf("scrub node %d: %w", i, err)
			}
			detected += len(rep.Errors)
		}
		if detected != 12 {
			t.Errorf("scrub confirmed %d corrupt blocks, want 12", detected)
		}
		// Every read must come back byte-correct: corrupt primary copies
		// are served from the shadow and rewritten in place (read-repair),
		// corrupt parity data blocks are served from reconstruction.
		for i := int64(0); i < nm; i++ {
			data, err := m.Read(i)
			if err != nil {
				return fmt.Errorf("mirror read %d: %w", i, err)
			}
			if !bytes.Equal(data, mirrorPayload(int(i))) {
				t.Errorf("mirror block %d wrong after bitrot", i)
			}
		}
		for i := int64(0); i < np; i++ {
			data, err := pf.Read(i)
			if err != nil {
				return fmt.Errorf("parity read %d: %w", i, err)
			}
			if !bytes.Equal(data, parityPayload(int(i))) {
				t.Errorf("parity block %d wrong after bitrot", i)
			}
		}
		// A misdirected write: rewriting mirror block 0 (same bytes) on
		// node 0 lands on the disk block that holds shadow 19 instead. The
		// victim's checksum was sealed for another address, so the next
		// sweep must catch it.
		inj.MisdirectWrite("disk0", ds+0, ds+9)
		if err := s.WriteAt("mf", 0, mirrorPayload(0)); err != nil {
			return fmt.Errorf("misdirected rewrite: %w", err)
		}
		victims := 0
		for i := 0; i < p; i++ {
			rep, err := s.Scrub(i)
			if err != nil {
				return fmt.Errorf("post-misdirect scrub node %d: %w", i, err)
			}
			victims += len(rep.Errors)
		}
		// Residual corruption at this point: the four shadow copies reads
		// never touched, plus the misdirected-write victim. (The corrupt
		// parity-column block is unreadable but not part of a chain walk.)
		if victims == 0 {
			t.Error("post-misdirect scrub found nothing; want the untouched shadows and the victim")
		}
		// Heal what reads did not: Resilver rewrites the corrupt shadow
		// copies from their primaries, Rebuild recomputes the corrupt
		// parity-column block.
		if _, err := m.Resilver(); err != nil {
			return fmt.Errorf("Resilver: %w", err)
		}
		if _, err := pf.Rebuild(); err != nil {
			return fmt.Errorf("Rebuild: %w", err)
		}
		// Zero residual mismatches: a full sweep and a full fsck of every
		// node must now come back clean.
		for i := 0; i < p; i++ {
			rep, err := s.Scrub(i)
			if err != nil {
				return fmt.Errorf("final scrub node %d: %w", i, err)
			}
			if len(rep.Errors) != 0 {
				t.Errorf("node %d: %d residual scrub errors after repair: %+v", i, len(rep.Errors), rep.Errors)
			}
			check, err := s.Fsck(i)
			if err != nil {
				return fmt.Errorf("fsck node %d: %w", i, err)
			}
			if !check.OK() {
				t.Errorf("node %d volume inconsistent after repair: %v", i, check.Problems)
			}
		}
		// And the data survives one more full pass.
		for i := int64(0); i < nm; i++ {
			data, err := m.Read(i)
			if err != nil {
				return fmt.Errorf("final mirror read %d: %w", i, err)
			}
			if !bytes.Equal(data, mirrorPayload(int(i))) {
				t.Errorf("mirror block %d wrong after full repair", i)
			}
			contents = append(contents, data)
		}
		for i := int64(0); i < np; i++ {
			data, err := pf.Read(i)
			if err != nil {
				return fmt.Errorf("final parity read %d: %w", i, err)
			}
			if !bytes.Equal(data, parityPayload(int(i))) {
				t.Errorf("parity block %d wrong after full repair", i)
			}
			contents = append(contents, data)
		}
		stats := s.Cluster().Net.Stats()
		if got := stats.Get("bridge.readrepair_mirror"); got == 0 {
			t.Error("no mirror read-repairs recorded")
		}
		if got := stats.Get("bridge.readrepair_parity"); got == 0 {
			t.Error("no parity read-repairs recorded")
		}
		if stats.Get("bridge.scrub_blocks") == 0 {
			t.Error("scrub scanned no blocks")
		}
		if inj.Stats().Get("fault.disk_bitrot") != 12 {
			t.Errorf("injector applied %d bit flips, want 12", inj.Stats().Get("fault.disk_bitrot"))
		}
		if inj.Stats().Get("fault.disk_misdirected") != 1 {
			t.Errorf("injector misdirected %d writes, want 1", inj.Stats().Get("fault.disk_misdirected"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run (seed %d): %v", seed, err)
	}
	return chromeTrace(t, insp), contents
}

func TestCorruptionChaosRepairsAndVerifies(t *testing.T) {
	runCorruptionChaos(t, corruptionSeed(t))
}

// TestCorruptionChaosReplaysExactly: the same seed gives a byte-identical
// Chrome trace and identical contents. With BRIDGE_CHAOS_TRACE_OUT set the
// trace is also written to <path>.seed<N>, so CI can compare it across
// processes.
func TestCorruptionChaosReplaysExactly(t *testing.T) {
	seed := corruptionSeed(t)
	tr1, c1 := runCorruptionChaos(t, seed)
	if t.Failed() {
		return
	}
	dumpTrace(t, "BRIDGE_CHAOS_TRACE_OUT", seed, tr1)
	tr2, c2 := runCorruptionChaos(t, seed)
	if tr1 != tr2 {
		t.Error("same seed produced different traces")
	}
	if len(c1) != len(c2) {
		t.Fatalf("same seed produced %d vs %d blocks", len(c1), len(c2))
	}
	for i := range c1 {
		if !bytes.Equal(c1[i], c2[i]) {
			t.Errorf("same seed produced different block %d", i)
		}
	}
	// A different seed flips different bits, so the trace must differ.
	tr3, _ := runCorruptionChaos(t, seed+1000)
	if tr3 == tr1 {
		t.Error("different seed replayed the first run's trace exactly")
	}
}
