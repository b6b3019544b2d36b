package disk

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bridge/internal/sim"
)

// storeDisk opens (or creates) the store at path and a device on it.
func storeDisk(t *testing.T, path string, nblocks int) *Disk {
	t.Helper()
	st, err := OpenFileStore(path, 1024, nblocks)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	d, err := NewWithStore(Config{NumBlocks: nblocks, Timing: FixedTiming{}}, st)
	if err != nil {
		t.Fatalf("NewWithStore: %v", err)
	}
	return d
}

// TestFileStoreReopen: what a file-backed device synced is on the device
// the store next opens under, never-written blocks stay never-written, and
// each open counts as a mount. A store reopens clean after a Sync, and
// dirty once it was written after its last Sync.
func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node1.disk")
	d := storeDisk(t, path, 64)
	run(t, func(p sim.Proc) {
		for _, bn := range []int{0, 7, 63} {
			if err := d.WriteBlock(p, bn, bytes.Repeat([]byte{byte(bn + 1)}, 1024)); err != nil {
				t.Fatalf("WriteBlock %d: %v", bn, err)
			}
		}
		if err := d.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	})
	if d.Store().CleanAtOpen() {
		t.Error("a fresh store reads clean at open")
	}
	if err := d.Store().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := storeDisk(t, path, 64)
	for _, bn := range []int{0, 7, 63} {
		want := bytes.Repeat([]byte{byte(bn + 1)}, 1024)
		if got := d2.Peek(bn); !bytes.Equal(got, want) {
			t.Errorf("block %d differs after reopen", bn)
		}
	}
	if d2.Peek(1) != nil {
		t.Error("unwritten block materialized by reopen")
	}
	if n := d2.Store().MountCount(); n != 2 {
		t.Errorf("mount count %d after two opens, want 2", n)
	}
	if !d2.Store().CleanAtOpen() {
		t.Error("a store synced before it closed reopens dirty")
	}
	run(t, func(p sim.Proc) {
		if err := d2.WriteBlock(p, 1, bytes.Repeat([]byte{9}, 1024)); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
	})
	if err := d2.Store().Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d3 := storeDisk(t, path, 64); d3.Store().CleanAtOpen() {
		t.Error("a store written after its last Sync reopens clean")
	}
}

// TestFileStoreHoldDirty: a held store's Syncs persist its blocks but leave
// it dirty, also when it was clean as the hold began; after the hold is let
// go the next Sync marks it clean.
func TestFileStoreHoldDirty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node1.disk")
	reopen := func(hold bool, sync bool) bool {
		t.Helper()
		d := storeDisk(t, path, 64)
		clean := d.Store().CleanAtOpen()
		run(t, func(p sim.Proc) {
			if sync {
				if err := d.Sync(p); err != nil {
					t.Fatalf("Sync: %v", err)
				}
			}
			d.HoldDirty(hold)
			if err := d.Sync(p); err != nil {
				t.Fatalf("Sync: %v", err)
			}
		})
		if err := d.Store().Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return clean
	}
	reopen(true, false)
	if reopen(true, true) {
		t.Error("a store held dirty through its Syncs reopens clean")
	}
	if reopen(false, false) {
		t.Error("a store held dirty after a Sync marked it clean reopens clean")
	}
	if !reopen(false, false) {
		t.Error("a store synced after its hold was let go reopens dirty")
	}
}

// TestFileStoreGeometryMismatch: a store opens only under the geometry it
// was made with, and a device takes only a store of its own geometry.
func TestFileStoreGeometryMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node1.disk")
	st, err := OpenFileStore(path, 1024, 64)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	if _, err := NewWithStore(Config{NumBlocks: 32}, st); !errors.Is(err, ErrBadStore) {
		t.Errorf("NewWithStore on a 64-block store for a 32-block device = %v, want ErrBadStore", err)
	}
	st.Close()
	for _, g := range [][2]int{{1024, 32}, {512, 64}} {
		if _, err := OpenFileStore(path, g[0], g[1]); !errors.Is(err, ErrBadStore) {
			t.Errorf("reopen as %dx%d = %v, want ErrBadStore", g[1], g[0], err)
		}
	}
}

// TestFileStoreCorruptHeader: a file that is not a store, or a store cut
// short, is refused as ErrBadStore.
func TestFileStoreCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.disk")
	st, err := OpenFileStore(good, 1024, 8)
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	st.Close()
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"garbage":   []byte("not a store"),
		"magic":     append([]byte("BRDGDSK2"), raw[8:]...),
		"truncated": raw[:len(raw)-1],
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileStore(path, 1024, 8); !errors.Is(err, ErrBadStore) {
			t.Errorf("%s: OpenFileStore = %v, want ErrBadStore", name, err)
		}
	}
}

// FuzzOpenFileStore: any bytes as a store file either open with the
// requested geometry, every written block readable, or fail with
// ErrBadStore — never a panic.
func FuzzOpenFileStore(f *testing.F) {
	const bs, nb = 1024, 16
	seed := filepath.Join(f.TempDir(), "seed.disk")
	st, err := OpenFileStore(seed, bs, nb)
	if err != nil {
		f.Fatalf("OpenFileStore: %v", err)
	}
	st.WriteBlockAt(3, bytes.Repeat([]byte{7}, bs))
	if err := st.Sync(1, 1, 1); err != nil {
		f.Fatalf("Sync: %v", err)
	}
	st.Close()
	raw, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:storeHeaderLen])
	f.Add([]byte{})
	f.Add([]byte("BRDGDSK1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s.disk")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenFileStore(path, bs, nb)
		if err != nil {
			if !errors.Is(err, ErrBadStore) {
				t.Fatalf("OpenFileStore = %v, want ErrBadStore", err)
			}
			return
		}
		defer st.Close()
		if st.BlockSize() != bs || st.NumBlocks() != nb {
			t.Fatalf("opened as %dx%d, want %dx%d", st.NumBlocks(), st.BlockSize(), nb, bs)
		}
		if _, err := st.ReadAll(); err != nil {
			t.Fatalf("ReadAll of an opened store: %v", err)
		}
	})
}
