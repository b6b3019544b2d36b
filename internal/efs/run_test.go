package efs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bridge/internal/disk"
	"bridge/internal/sim"
)

// accessLog is a disk.FaultHook that injects nothing and records each write
// access: the blocks of a run are consulted in ascending order at the same
// instant, so a block that does not follow the last one at that instant
// starts a new access. The disk must charge time per access for it to tell
// two single-block writes to neighbouring blocks apart.
type accessLog struct {
	at     time.Duration
	writes [][]int // each access's blocks
}

func (l *accessLog) BeforeOp(now time.Duration, _ string, op disk.Op, bn int) (time.Duration, error) {
	if op != disk.OpWrite {
		return 0, nil
	}
	if n := len(l.writes); n > 0 && now == l.at {
		if w := l.writes[n-1]; w[len(w)-1] == bn-1 {
			l.writes[n-1] = append(w, bn)
			return 0, nil
		}
	}
	l.at = now
	l.writes = append(l.writes, []int{bn})
	return 0, nil
}

// TestAppendRunWritesATrackAtATime pins what an append costs the device:
// each stretch of the appended blocks that is consecutive and on one track
// is one write access. On an unjournaled volume the old tail's link is then
// an access of its own, after every new block (the link must not reach the
// medium before the blocks it names); on a journaled one the run's last
// block is held, and a held old tail is written in the run, ahead of the
// new blocks.
func TestAppendRunWritesATrackAtATime(t *testing.T) {
	sizes := []int{5, 8, 1, 13, 8, 2, 1}
	for _, journaled := range []bool{false, true} {
		opts := Options{DirBuckets: 4, CacheBlocks: 64}
		if journaled {
			opts.JournalBlocks = 32
		}
		d := disk.New(disk.Config{NumBlocks: 1024, BlocksPerTrack: 8, Timing: disk.FixedTiming{Latency: time.Millisecond}, WriteBack: journaled})
		run(t, func(p sim.Proc) {
			fs, err := Format(p, d, opts)
			if err != nil {
				t.Fatalf("Format: %v", err)
			}
			if err := fs.Create(p, 1); err != nil {
				t.Fatalf("Create: %v", err)
			}
			if err := fs.Sync(p); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			log := &accessLog{}
			d.SetFault(log, "d")
			size := uint32(0)
			for i, k := range sizes {
				before, _ := fs.Stat(p, 1)
				log.writes = nil
				addrs, err := fs.AppendRun(p, 1, size, nil, runOf(k, byte(16*i)))
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				size += uint32(k)
				// The blocks written now, in file order.
				var blocks []int
				if journaled && before.Blocks > 0 {
					blocks = append(blocks, int(before.Last)) // the held old tail
				}
				written := addrs
				if journaled {
					written = addrs[:k-1] // the new tail is held
				}
				for _, a := range written {
					blocks = append(blocks, int(a))
				}
				var want [][]int
				for _, bn := range blocks {
					if n := len(want); n > 0 {
						if w := want[n-1]; w[len(w)-1] == bn-1 && bn%8 != 0 {
							want[n-1] = append(w, bn)
							continue
						}
					}
					want = append(want, []int{bn})
				}
				if !journaled && before.Blocks > 0 {
					want = append(want, []int{int(before.Last)}) // the link, last
				}
				if fmt.Sprint(log.writes) != fmt.Sprint(want) {
					t.Errorf("journaled %v: append %d of %d blocks made write accesses %v, want %v",
						journaled, i, k, log.writes, want)
				}
			}
			if err := fs.Sync(p); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if rep, err := fs.Check(p); err != nil || !rep.OK() {
				t.Errorf("journaled %v: fsck: %v %v", journaled, err, rep.Problems)
			}
		})
	}
}

// TestAppendRunMatchesBlockAtATime is a differential test: a file appended
// in runs and the same file appended a block at a time, on identical
// volumes, hold the same blocks at the same addresses with the same chain —
// every byte of the volume outside the journal region is equal after a
// Sync — and fsck says the same of both, journaled or not.
func TestAppendRunMatchesBlockAtATime(t *testing.T) {
	sizes := []int{3, 8, 1, 16, 5, 8, 2}
	for _, journal := range []int{0, 32} {
		type volume struct {
			d   *disk.Disk
			rep CheckReport
		}
		build := func(inRuns bool) volume {
			v := volume{d: disk.New(disk.Config{NumBlocks: 512, Timing: disk.FixedTiming{}, WriteBack: journal > 0})}
			run(t, func(p sim.Proc) {
				fs, err := Format(p, v.d, Options{DirBuckets: 4, CacheBlocks: 8, JournalBlocks: journal})
				if err != nil {
					t.Fatalf("Format: %v", err)
				}
				for f := uint32(1); f <= 2; f++ {
					if err := fs.Create(p, f); err != nil {
						t.Fatalf("Create: %v", err)
					}
				}
				size := uint32(0)
				for i, k := range sizes {
					datas := runOf(k, byte(16*i))
					// A second file's block between runs moves where the
					// next run starts on its track.
					if _, err := fs.WriteBlock(p, 2, uint32(i), fill(byte(i), 9), -1); err != nil {
						t.Fatalf("file 2 block %d: %v", i, err)
					}
					if inRuns {
						if _, err := fs.AppendRun(p, 1, size, nil, datas); err != nil {
							t.Fatalf("run %d: %v", i, err)
						}
					} else {
						for j, data := range datas {
							if _, err := fs.WriteBlock(p, 1, size+uint32(j), data, -1); err != nil {
								t.Fatalf("block %d: %v", size+uint32(j), err)
							}
						}
					}
					size += uint32(k)
				}
				if err := fs.Sync(p); err != nil {
					t.Fatalf("Sync: %v", err)
				}
				rep, err := fs.Check(p)
				if err != nil {
					t.Fatalf("Check: %v", err)
				}
				v.rep = rep
			})
			return v
		}
		runs, blocks := build(true), build(false)
		if !runs.rep.OK() || fmt.Sprint(runs.rep) != fmt.Sprint(blocks.rep) {
			t.Errorf("journal %d: fsck of the run-appended volume %+v, of the block-appended one %+v", journal, runs.rep, blocks.rep)
		}
		end := 512 - journal
		for bn := 0; bn < end; bn++ {
			if a, b := runs.d.Peek(bn), blocks.d.Peek(bn); !bytes.Equal(a, b) {
				t.Errorf("journal %d: block %d differs between run and block-at-a-time appends", journal, bn)
			}
		}
	}
}

// keepOutcome is a disk.CrashHook with a fixed outcome that remembers how
// many writes were pending.
type keepOutcome struct {
	out     disk.CrashOutcome
	pending *int
}

func (h keepOutcome) OnCrash(_ time.Duration, _ string, pending []int) disk.CrashOutcome {
	*h.pending = len(pending)
	return h.out
}

// TestGatheredRunKilledAtEveryPrefix: a journaled volume commits a file,
// appends more blocks onto it (the tail held) and then a gathered run of 8,
// which writes the held old tail and seven new blocks in one access per
// track, and crashes. For every prefix of the pending writes that reaches
// the medium, with the write after it torn or not, the volume remounts
// fsck-clean and holds exactly the committed state.
func TestGatheredRunKilledAtEveryPrefix(t *testing.T) {
	committed := runOf(5, 0x10)
	workload := func(p sim.Proc, d *disk.Disk) {
		fs, err := Format(p, d, journalTestOpts)
		if err != nil {
			t.Fatalf("Format: %v", err)
		}
		if err := fs.Create(p, 1); err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := fs.AppendRun(p, 1, 0, nil, committed); err != nil {
			t.Fatalf("AppendRun: %v", err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		if _, err := fs.AppendRun(p, 1, 5, nil, runOf(3, 0x40)); err != nil {
			t.Fatalf("AppendRun: %v", err)
		}
		if _, err := fs.AppendRun(p, 1, 8, nil, runOf(8, 0x80)); err != nil {
			t.Fatalf("AppendRun: %v", err)
		}
		d.Crash(p.Now())
	}
	cfg := disk.Config{NumBlocks: 512, Timing: disk.FixedTiming{}, WriteBack: true}

	var pending int
	d := disk.New(cfg)
	d.SetCrashHook(keepOutcome{pending: &pending})
	run(t, func(p sim.Proc) { workload(p, d) })
	if pending < 10 {
		t.Fatalf("only %d writes pending at the crash; the run never reached the write cache", pending)
	}
	for keep := 0; keep <= pending; keep++ {
		for _, torn := range []int{0, 100, BlockSize - 1} {
			if torn > 0 && keep == pending {
				continue // nothing left to tear
			}
			d := disk.New(cfg)
			var n int
			d.SetCrashHook(keepOutcome{out: disk.CrashOutcome{Keep: keep, TornBytes: torn}, pending: &n})
			run(t, func(p sim.Proc) { workload(p, d) })
			d.Restore()
			run(t, func(p sim.Proc) {
				fs, err := Mount(p, d, Options{CacheBlocks: 8})
				if err != nil {
					t.Fatalf("keep %d torn %d: Mount: %v", keep, torn, err)
				}
				if rep, err := fs.Check(p); err != nil || !rep.OK() {
					t.Errorf("keep %d torn %d: fsck: %v %v", keep, torn, err, rep.Problems)
				}
				got, err := readState(p, fs)
				if err != nil {
					t.Errorf("keep %d torn %d: %v", keep, torn, err)
					return
				}
				if want := (volState{1: committed}); !sameState(got, want) {
					t.Errorf("keep %d torn %d: recovered %v, want %v", keep, torn, got, want)
				}
			})
		}
	}
}
