package bridge

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"bridge/internal/core"
)

func TestFacadeMultiServer(t *testing.T) {
	sys, err := New(Config{Nodes: 4, Servers: 3, DiskLatency: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run(func(s *Session) error {
		for i := 0; i < 9; i++ {
			name := fmt.Sprintf("f%d", i)
			if err := s.Create(name); err != nil {
				return err
			}
			if err := s.Append(name, []byte(name)); err != nil {
				return err
			}
		}
		for i := 0; i < 9; i++ {
			name := fmt.Sprintf("f%d", i)
			data, err := s.ReadAt(name, 0)
			if err != nil || string(data) != name {
				return fmt.Errorf("read %s = %q, %v", name, data, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeCustomTool(t *testing.T) {
	// Build a checksum tool directly on the public API: each worker
	// CRCs its node's column locally; the controller combines.
	sys := fastSystem(t, 4)
	err := sys.Run(func(s *Session) error {
		if err := s.Create("data"); err != nil {
			return err
		}
		var want uint32
		for i := 0; i < 24; i++ {
			payload := []byte(fmt.Sprintf("payload-%02d", i))
			want ^= crc32.ChecksumIEEE(payload)
			if err := s.Append("data", payload); err != nil {
				return err
			}
		}
		meta, err := s.Open("data")
		if err != nil {
			return err
		}
		results, err := s.RunTool("crc", func(ctx *ToolCtx) (any, error) {
			var acc uint32
			local := meta.LocalBlocks(ctx.Index)
			hint := int32(-1)
			for j := int64(0); j < local; j++ {
				raw, addr, err := ctx.LFS.Read(ctx.Node, meta.LFSFileID, uint32(j), hint)
				if err != nil {
					return nil, err
				}
				hint = addr
				_, payload, err := core.DecodeBlock(raw)
				if err != nil {
					return nil, err
				}
				acc ^= crc32.ChecksumIEEE(payload)
			}
			return acc, nil
		})
		if err != nil {
			return err
		}
		var got uint32
		for _, r := range results {
			got ^= r.(uint32)
		}
		if got != want {
			return fmt.Errorf("tool checksum %08x, want %08x", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFacadeTrace: an Obs run's Chrome trace holds every message send with
// its body type — tool traffic, which opens no span, among them — and every
// device access annotated with its block range.
func TestFacadeTrace(t *testing.T) {
	sys, err := New(Config{Nodes: 2, DiskLatency: time.Millisecond, Obs: &ObsConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	var trc bytes.Buffer
	err = sys.Run(func(s *Session) error {
		if err := s.Create("f"); err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			if err := s.Append("f", []byte(fmt.Sprintf("record %02d", 6-i))); err != nil {
				return err
			}
		}
		if _, err := s.Sort("f", "sorted", SortOptions{InCore: 2}); err != nil {
			return err
		}
		return s.Inspect().WriteChromeTrace(&trc)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Detail string   `json:"detail"`
				Ann    []string `json:"ann"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trc.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	sends, tokens, writes := 0, 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "msg.send":
			sends++
			if strings.Contains(e.Args.Detail, "*tools.mergeToken") {
				tokens++
			}
		case "disk.write":
			if len(e.Args.Ann) != 1 || !strings.Contains(e.Args.Ann[0], " block ") || !strings.Contains(e.Args.Ann[0], "(+") {
				t.Errorf("disk.write annotations = %q, want its block range", e.Args.Ann)
			}
			writes++
		}
	}
	if sends == 0 || tokens == 0 || writes == 0 {
		t.Errorf("trace holds %d msg.send events (%d of *tools.mergeToken) and %d disk.write spans; want each > 0", sends, tokens, writes)
	}
}

func TestFacadeTraceDisabled(t *testing.T) {
	sys := fastSystem(t, 2)
	err := sys.Run(func(s *Session) error {
		if err := s.Inspect().WriteChromeTrace(&bytes.Buffer{}); !errors.Is(err, ErrObsDisabled) {
			return fmt.Errorf("WriteChromeTrace without Config.Obs: err = %v, want ErrObsDisabled", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeParallelJobHelpers(t *testing.T) {
	sys := fastSystem(t, 4)
	err := sys.Run(func(s *Session) error {
		// Write via a parallel job, read back both ways.
		blocks := make([][]byte, 11) // odd count exercises the EOF round
		for i := range blocks {
			blocks[i] = []byte(fmt.Sprintf("pj-%02d", i))
		}
		if err := s.Create("pj"); err != nil {
			return err
		}
		if err := s.ParallelAppend("pj", 4, blocks); err != nil {
			return err
		}
		got, err := s.ParallelReadAll("pj", 4)
		if err != nil {
			return err
		}
		if len(got) != len(blocks) {
			return fmt.Errorf("ParallelReadAll = %d blocks, want %d", len(got), len(blocks))
		}
		for i := range blocks {
			if !bytes.Equal(got[i], blocks[i]) {
				return fmt.Errorf("block %d = %q, want %q", i, got[i], blocks[i])
			}
		}
		// Width above p exercises virtual parallelism.
		got, err = s.ParallelReadAll("pj", 9)
		if err != nil || len(got) != len(blocks) {
			return fmt.Errorf("wide ParallelReadAll = %d, %v", len(got), err)
		}
		// And the naive view agrees.
		all, err := s.ReadAll("pj")
		if err != nil || len(all) != len(blocks) {
			return fmt.Errorf("ReadAll = %d, %v", len(all), err)
		}
		// Empty append is a no-op.
		if err := s.Create("pj0"); err != nil {
			return err
		}
		if err := s.ParallelAppend("pj0", 3, nil); err != nil {
			return err
		}
		if info, _ := s.Stat("pj0"); info.Blocks != 0 {
			return fmt.Errorf("empty parallel append produced %d blocks", info.Blocks)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeDisordered(t *testing.T) {
	sys := fastSystem(t, 4)
	err := sys.Run(func(s *Session) error {
		info, err := s.CreateDisordered("chain")
		if err != nil {
			return err
		}
		if info.Chain == nil {
			return fmt.Errorf("no chain info: %+v", info)
		}
		for i := 0; i < 10; i++ {
			if err := s.Append("chain", []byte{byte(i)}); err != nil {
				return err
			}
		}
		all, err := s.ReadAll("chain")
		if err != nil || len(all) != 10 {
			return fmt.Errorf("ReadAll = %d, %v", len(all), err)
		}
		for i, b := range all {
			if b[0] != byte(i) {
				return fmt.Errorf("block %d corrupt", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestToolWritesNeedGroupOfOne pins the one known hole in the feature ×
// group-size matrix as a loud failure: Copy and Sort write the destination
// behind the Bridge Server's back and rely on Open asking the storage nodes
// for the new size, which only a group of one does. Behind a replicated
// group they must fail with the typed error instead of leaving a file that
// stats and reads as empty; behind a group of one they keep working.
func TestToolWritesNeedGroupOfOne(t *testing.T) {
	for _, replicas := range []int{0, 1, 3} {
		sys, err := New(Config{Nodes: 4, DiskBlocks: 512, Replicas: replicas, DiskLatency: time.Microsecond})
		if err != nil {
			t.Fatalf("Replicas=%d: %v", replicas, err)
		}
		err = sys.Run(func(s *Session) error {
			if err := s.Create("src"); err != nil {
				return err
			}
			for i := 0; i < 16; i++ {
				if err := s.Append("src", []byte(fmt.Sprintf("%08d record", 97*i%16))); err != nil {
					return err
				}
			}
			_, cerr := s.Copy("src", "copied")
			_, serr := s.Sort("src", "sorted", SortOptions{})
			if replicas > 1 {
				if !errors.Is(cerr, ErrBadArg) || !strings.Contains(cerr.Error(), "group of one") {
					return fmt.Errorf("Copy = %v, want ErrBadArg naming the group-of-one requirement", cerr)
				}
				if !errors.Is(serr, ErrBadArg) || !strings.Contains(serr.Error(), "group of one") {
					return fmt.Errorf("Sort = %v, want ErrBadArg naming the group-of-one requirement", serr)
				}
				return nil
			}
			if cerr != nil || serr != nil {
				return fmt.Errorf("Copy = %v, Sort = %v; both must work on a group of one", cerr, serr)
			}
			for _, name := range []string{"copied", "sorted"} {
				info, err := s.Stat(name)
				if err != nil || info.Blocks != 16 {
					return fmt.Errorf("Stat(%s) = %d blocks, %v; want 16", name, info.Blocks, err)
				}
				blocks, err := s.ReadAll(name)
				if err != nil || len(blocks) != 16 {
					return fmt.Errorf("ReadAll(%s) = %d blocks, %v; want 16", name, len(blocks), err)
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("Replicas=%d: %v", replicas, err)
		}
	}
}

// TestConfigGroupSize pins the construction-time audit of the group-size
// knob: 0 and 1 both mean a group of one, and the features a replicated
// group cannot offer are rejected with ErrBadArg rather than switched off.
func TestConfigGroupSize(t *testing.T) {
	for _, cfg := range []Config{
		{Replicas: 3, Health: &HealthConfig{}},
		{Replicas: 3, ReadAhead: 2},
		{Servers: 2, Replicas: 2, ReadAhead: 1},
		{Replicas: -1},
	} {
		if _, err := New(cfg); !errors.Is(err, ErrBadArg) {
			t.Errorf("New(%+v) = %v, want ErrBadArg", cfg, err)
		}
	}
	for _, replicas := range []int{0, 1} {
		sys, err := New(Config{Nodes: 2, Replicas: replicas, Health: &HealthConfig{}, ReadAhead: 2, DiskLatency: time.Microsecond})
		if err != nil {
			t.Fatalf("Replicas=%d: %v", replicas, err)
		}
		err = sys.Run(func(s *Session) error {
			if s.LeaderServer(0) != -1 || s.Inspect().Raft(0) != nil {
				return fmt.Errorf("a group of one reports consensus state")
			}
			if err := s.CrashServer(0, 0); err == nil {
				return fmt.Errorf("CrashServer on a group of one: want an error")
			}
			return s.Create("f")
		})
		if err != nil {
			t.Errorf("Replicas=%d: %v", replicas, err)
		}
	}
}

// TestWriteBehindReusedBuffer: a caller that writes every block from one
// buffer, refilled between calls, reads back each block as it was written
// under write-behind, whose acknowledged appends (and WriteAts at the file
// size) outlive the call. The server keeps its own copy; holding the
// caller's slice would read back the last fill in every buffered block.
func TestWriteBehindReusedBuffer(t *testing.T) {
	for _, replicas := range []int{0, 3} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
			// A window of 4 stripes on 4 nodes is 16 blocks: all 8 stay
			// buffered until the reads drain them.
			sys, err := New(Config{Nodes: 4, Replicas: replicas, WriteBehind: 4, DiskLatency: time.Nanosecond})
			if err != nil {
				t.Fatal(err)
			}
			const blocks = 8
			fillOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, PayloadBytes) }
			err = sys.Run(func(s *Session) error {
				if err := s.Create("f"); err != nil {
					return err
				}
				buf := make([]byte, PayloadBytes)
				for i := 0; i < blocks; i++ {
					copy(buf, fillOf(i))
					var err error
					if i%2 == 0 {
						err = s.Append("f", buf)
					} else {
						err = s.WriteAt("f", int64(i), buf)
					}
					if err != nil {
						return fmt.Errorf("write %d: %w", i, err)
					}
				}
				clear(buf)
				wrong := 0
				for i := 0; i < blocks; i++ {
					got, err := s.ReadAt("f", int64(i))
					if err != nil {
						return fmt.Errorf("read %d: %w", i, err)
					}
					if !bytes.Equal(got, fillOf(i)) {
						wrong++
					}
				}
				if wrong > 0 {
					return fmt.Errorf("%d of %d blocks read back wrong", wrong, blocks)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}
}
