package efs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bridge/internal/disk"
	"bridge/internal/sim"
)

// modelOp is one step of the model-based test.
type modelOp struct {
	Kind  uint8 // create / write / read / delete / stat / sync-remount / append run
	File  uint8
	Block uint8
	Fill  byte
}

// TestQuickModelEquivalence drives an EFS volume and a trivial in-memory
// model with the same random operation sequence and requires identical
// observable behavior, including error classes. This is the main integrity
// test for the directory, the chain walks, the cache, and the bitmap. It
// runs on an unjournaled volume and on a journaled one, where appends,
// overwrites and deletes meet held tails.
func TestQuickModelEquivalence(t *testing.T) {
	for _, journal := range []int{0, 32} {
		t.Run(fmt.Sprintf("journal%d", journal), func(t *testing.T) {
			quickModelEquivalence(t, journal)
		})
	}
}

func quickModelEquivalence(t *testing.T, journal int) {
	f := func(ops []modelOp, seed int64) bool {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		rng := rand.New(rand.NewSource(seed))
		d := disk.New(disk.Config{NumBlocks: 2048, Timing: disk.FixedTiming{}})
		model := make(map[uint8][][]byte) // file -> blocks
		okAll := true
		rt := sim.NewVirtual()
		err := rt.Run("model", func(p sim.Proc) {
			fs, err := Format(p, d, Options{DirBuckets: 4, CacheBlocks: 8, JournalBlocks: journal})
			if err != nil {
				okAll = false
				return
			}
			fail := func(format string, args ...any) {
				t.Logf(format, args...)
				okAll = false
			}
			for i, op := range ops {
				file := op.File % 6
				switch op.Kind % 7 {
				case 6: // append a run
					blocks, exists := model[file]
					run := make([][]byte, 1+int(op.Block)%4)
					for j := range run {
						run[j] = bytes.Repeat([]byte{op.Fill + byte(j)}, 1+int(op.Fill)%32)
					}
					_, err := fs.AppendRun(p, uint32(file), uint32(len(blocks)), nil, run)
					switch {
					case !exists:
						if !errors.Is(err, ErrNotFound) {
							fail("op %d: append run to missing file: %v", i, err)
							return
						}
					case err != nil:
						fail("op %d: append run of %d to file %d: %v", i, len(run), file, err)
						return
					default:
						model[file] = append(blocks, run...)
					}
				case 0: // create
					err := fs.Create(p, uint32(file))
					_, exists := model[file]
					if exists != errors.Is(err, ErrExists) || (!exists && err != nil) {
						fail("op %d: create file %d: err %v, model exists %v", i, file, err, exists)
						return
					}
					if !exists {
						model[file] = nil
					}
				case 1: // write (append or overwrite at a random valid-ish point)
					blocks, exists := model[file]
					bn := uint32(op.Block)
					if exists && len(blocks) > 0 {
						bn = uint32(rng.Intn(len(blocks) + 1))
					} else if exists {
						bn = 0
					}
					data := bytes.Repeat([]byte{op.Fill}, 1+int(op.Fill)%32)
					_, err := fs.WriteBlock(p, uint32(file), bn, data, -1)
					switch {
					case !exists:
						if !errors.Is(err, ErrNotFound) {
							fail("op %d: write missing file: %v", i, err)
							return
						}
					case err != nil:
						fail("op %d: write file %d block %d: %v", i, file, bn, err)
						return
					case int(bn) == len(blocks):
						model[file] = append(blocks, data)
					default:
						blocks[bn] = data
					}
				case 2: // read
					blocks, exists := model[file]
					bn := uint32(op.Block)
					if exists && len(blocks) > 0 {
						bn = uint32(rng.Intn(len(blocks)))
					}
					got, _, err := fs.ReadBlock(p, uint32(file), bn, -1)
					switch {
					case !exists:
						if !errors.Is(err, ErrNotFound) {
							fail("op %d: read missing file: %v", i, err)
							return
						}
					case len(blocks) == 0:
						if !errors.Is(err, ErrBadBlockNum) {
							fail("op %d: read empty file: %v", i, err)
							return
						}
					case err != nil || !bytes.Equal(got, blocks[bn]):
						fail("op %d: read file %d block %d = %q, %v; want %q", i, file, bn, got, err, blocks[bn])
						return
					}
				case 3: // delete
					blocks, exists := model[file]
					n, err := fs.Delete(p, uint32(file))
					if !exists {
						if !errors.Is(err, ErrNotFound) {
							fail("op %d: delete missing: %v", i, err)
							return
						}
					} else if err != nil || n != len(blocks) {
						fail("op %d: delete file %d = %d, %v; want %d", i, file, n, err, len(blocks))
						return
					}
					delete(model, file)
				case 4: // stat
					blocks, exists := model[file]
					info, err := fs.Stat(p, uint32(file))
					if !exists {
						if !errors.Is(err, ErrNotFound) {
							fail("op %d: stat missing: %v", i, err)
							return
						}
					} else if err != nil || info.Blocks != len(blocks) {
						fail("op %d: stat = %+v, %v; want %d blocks", i, info, err, len(blocks))
						return
					}
				case 5: // sync + remount
					if err := fs.Sync(p); err != nil {
						fail("op %d: sync: %v", i, err)
						return
					}
					fs, err = Mount(p, d, Options{})
					if err != nil {
						fail("op %d: remount: %v", i, err)
						return
					}
				}
			}
			// Final full verification.
			for file, blocks := range model {
				for bn, want := range blocks {
					got, _, err := fs.ReadBlock(p, uint32(file), uint32(bn), -1)
					if err != nil || !bytes.Equal(got, want) {
						fail("final: file %d block %d = %q, %v; want %q", file, bn, got, err, want)
						return
					}
				}
			}
			// And the volume invariants must hold after any sequence.
			rep, err := fs.Check(p)
			if err != nil {
				fail("final check: %v", err)
				return
			}
			if !rep.OK() {
				fail("final check problems: %v", rep.Problems)
			}
		})
		return okAll && err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
