package bridge

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fastSystem returns a system with zero disk latency for correctness tests.
func fastSystem(t *testing.T, nodes int) *System {
	t.Helper()
	sys, err := New(Config{Nodes: nodes, DiskLatency: time.Nanosecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys
}

func TestFacadeRoundTrip(t *testing.T) {
	sys := fastSystem(t, 4)
	err := sys.Run(func(s *Session) error {
		if s.Nodes() != 4 {
			t.Errorf("Nodes = %d, want 4", s.Nodes())
		}
		if err := s.Create("f"); err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			if err := s.Append("f", []byte{byte(i)}); err != nil {
				return err
			}
		}
		info, err := s.Stat("f")
		if err != nil || info.Blocks != 10 {
			return fmt.Errorf("Stat = %+v, %v", info, err)
		}
		all, err := s.ReadAll("f")
		if err != nil || len(all) != 10 {
			return fmt.Errorf("ReadAll = %d blocks, %v", len(all), err)
		}
		for i, b := range all {
			if b[0] != byte(i) {
				t.Errorf("block %d corrupt", i)
			}
		}
		if _, err := s.ReadAt("f", 3); err != nil {
			return err
		}
		if err := s.WriteAt("f", 3, []byte("x")); err != nil {
			return err
		}
		got, _ := s.ReadAt("f", 3)
		if string(got) != "x" {
			t.Errorf("WriteAt not visible")
		}
		n, err := s.Delete("f")
		if err != nil || n != 10 {
			return fmt.Errorf("Delete = %d, %v", n, err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeErrors(t *testing.T) {
	sys := fastSystem(t, 2)
	err := sys.Run(func(s *Session) error {
		if _, err := s.Open("nope"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Open missing = %v, want ErrNotFound", err)
		}
		s.Create("f")
		if err := s.Create("f"); !errors.Is(err, ErrExists) {
			t.Errorf("dup create = %v, want ErrExists", err)
		}
		if _, err := s.Read("f"); !errors.Is(err, ErrEOF) {
			t.Errorf("Read empty = %v, want ErrEOF", err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeTools(t *testing.T) {
	sys := fastSystem(t, 4)
	err := sys.Run(func(s *Session) error {
		s.Create("f")
		for i := 0; i < 20; i++ {
			s.Append("f", []byte(fmt.Sprintf("record %02d with needle", 20-i)))
		}
		cst, err := s.Copy("f", "f2")
		if err != nil || cst.Blocks != 20 {
			return fmt.Errorf("Copy = %+v, %v", cst, err)
		}
		g, err := s.Grep("f", []byte("needle"))
		if err != nil || len(g.Matches) != 20 {
			return fmt.Errorf("Grep = %d matches, %v", len(g.Matches), err)
		}
		wc, err := s.WC("f")
		if err != nil || wc.Words != 20*4 {
			return fmt.Errorf("WC = %+v, %v", wc, err)
		}
		st, err := s.Sort("f", "sorted", SortOptions{InCore: 4})
		if err != nil || st.Records != 20 {
			return fmt.Errorf("Sort = %+v, %v", st, err)
		}
		all, err := s.ReadAll("sorted")
		if err != nil {
			return err
		}
		for i := 1; i < len(all); i++ {
			if bytes.Compare(all[i-1][:8], all[i][:8]) > 0 {
				t.Errorf("sorted output not sorted at %d", i)
			}
		}
		if _, err := s.Filter("f", "up", func(_ int64, p []byte) []byte {
			return bytes.ToUpper(p)
		}); err != nil {
			return err
		}
		up, err := s.ReadAll("up")
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(up[0], []byte("RECORD")) {
			t.Errorf("Filter output = %q", up[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeFaultTolerance(t *testing.T) {
	sys := fastSystem(t, 4)
	err := sys.Run(func(s *Session) error {
		s.SetTimeout(5 * time.Minute)
		m, err := s.NewMirror("m")
		if err != nil {
			return err
		}
		payload := bytes.Repeat([]byte{7}, PayloadBytes)
		for i := 0; i < 8; i++ {
			if err := m.Append(payload); err != nil {
				return err
			}
		}
		pf, err := s.NewParity("p")
		if err != nil {
			return err
		}
		for i := 0; i < 6; i++ {
			if err := pf.Append(payload); err != nil {
				return err
			}
		}
		if err := s.FailNode(1); err != nil {
			return err
		}
		if _, err := m.Read(1); err != nil {
			t.Errorf("mirror read after failure: %v", err)
		}
		if _, err := pf.Read(1); err != nil {
			t.Errorf("parity read after failure: %v", err)
		}
		if err := s.FailNode(99); err == nil {
			t.Error("FailNode(99) succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeSimulatedTimeAdvances(t *testing.T) {
	sys, err := New(Config{Nodes: 2}) // default 15ms disks
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run(func(s *Session) error {
		s.Create("f")
		t0 := s.Now()
		for i := 0; i < 4; i++ {
			s.Append("f", []byte("x"))
		}
		if d := s.Now() - t0; d < 4*30*time.Millisecond {
			t.Errorf("4 appends advanced %v of simulated time, want >= 120ms", d)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeSeekModel(t *testing.T) {
	sys, err := New(Config{Nodes: 2, Seek: true})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run(func(s *Session) error {
		s.Create("f")
		s.Append("f", []byte("seek model"))
		data, err := s.ReadAt("f", 0)
		if err != nil || string(data) != "seek model" {
			return fmt.Errorf("read = %q, %v", data, err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeRunPropagatesError(t *testing.T) {
	sys := fastSystem(t, 2)
	sentinel := errors.New("user error")
	if err := sys.Run(func(s *Session) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("Run = %v, want user error", err)
	}
}

func TestNewRejectsNegative(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"Nodes", Config{Nodes: -1}},
		{"Servers", Config{Servers: -1}},
		{"Replicas", Config{Replicas: -1}},
		{"DiskBlocks", Config{DiskBlocks: -1}},
		{"Journal", Config{Journal: -1}},
		{"DiskLatency", Config{DiskLatency: -time.Millisecond}},
		{"LFSTimeout", Config{LFSTimeout: -time.Second}},
		{"ReadAhead", Config{ReadAhead: -1}},
		{"WriteBehind", Config{WriteBehind: -1}},
	} {
		_, err := New(c.cfg)
		if !errors.Is(err, ErrBadArg) || !strings.Contains(err.Error(), c.field) {
			t.Errorf("New with negative %s = %v, want ErrBadArg naming the field", c.field, err)
		}
	}
}
