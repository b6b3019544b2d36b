package experiments

import (
	"fmt"
	"time"

	"bridge/internal/core"
	"bridge/internal/sim"
	"bridge/internal/workload"
)

// Table2Point holds one processor count's basic-operation costs.
type Table2Point struct {
	P int
	// CreateTime and OpenTime are whole-operation costs.
	CreateTime time.Duration
	OpenTime   time.Duration
	// ReadPerBlock and WritePerBlock are amortized sequential costs over
	// the standard file.
	ReadPerBlock  time.Duration
	WritePerBlock time.Duration
	// DeleteTotal is the whole-file delete; DeleteCoeff is the fitted c
	// in c*n/p (milliseconds).
	DeleteTotal time.Duration
	DeleteCoeff float64
	// ReadSmallPerBlock is the amortized read cost on a file a quarter
	// the size, exposing the startup term of Read = a + b*p/n.
	ReadSmallPerBlock time.Duration
	// ReadBatchPerBlock is the amortized sequential cost through the
	// batched naive read (SeqReadN with server read-ahead): the same
	// interface shape, but each request scatter-gathers a run of blocks
	// across all p disks while the next window prefetches. Measured on a
	// separate cluster so the per-block columns keep the paper's
	// one-block-per-round-trip behavior.
	ReadBatchPerBlock time.Duration
}

// Table2Result reproduces Table 2 of the paper.
type Table2Result struct {
	Records int
	Points  []Table2Point
	// Fitted constants for the paper's formulas.
	CreateBase, CreateSlope float64 // ms, ms/processor: paper 145 + 17.5p
	ReadBase, ReadSlope     float64 // ms, ms*blocks/proc: paper 9.0 + 500p/n
	WriteMean               float64 // ms: paper 31
	OpenMean                float64 // ms: paper 80
	DeleteCoeffMean         float64 // ms: paper 20*n/p
}

// PaperTable2 holds the published formulas for side-by-side display.
var PaperTable2 = map[string]string{
	"Delete": "20·filesize/p ms",
	"Create": "145 + 17.5p ms",
	"Open":   "80 ms",
	"Read":   "9.0 + 500p/filesize ms",
	"Write":  "31 ms",
}

// Table2 measures the five basic operations across the processor sweep
// using the naive interface, as the paper did ("a simple program that uses
// the naive interface to the Bridge server in order to read and write files
// sequentially").
func Table2(cfg Config) (*Table2Result, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	cfg.smallCache()
	res := &Table2Result{Records: cfg.Records}
	for _, p := range cfg.Ps {
		pt := Table2Point{P: p}
		if err := measureTable2(p, cfg, &pt); err != nil {
			return nil, fmt.Errorf("table2 p=%d: %w", p, err)
		}
		var err error
		if pt.ReadBatchPerBlock, err = batchedRead(p, cfg, nil); err != nil {
			return nil, fmt.Errorf("table2 batched p=%d: %w", p, err)
		}
		res.Points = append(res.Points, pt)
	}
	res.fit(cfg)
	return res, nil
}

func (r *Table2Result) fit(cfg Config) {
	n := float64(len(r.Points))
	if n == 0 {
		return
	}
	// Least squares for Create = a + b*p.
	var sx, sy, sxx, sxy float64
	for _, pt := range r.Points {
		x := float64(pt.P)
		y := float64(pt.CreateTime) / float64(time.Millisecond)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den != 0 {
		r.CreateSlope = (n*sxy - sx*sy) / den
		r.CreateBase = (sy - r.CreateSlope*sx) / n
	}
	// Read = a + b*p/n: per point, b from the two file sizes, a from the
	// large file.
	var bSum, aSum float64
	small := float64(cfg.Records / 4)
	big := float64(cfg.Records)
	for _, pt := range r.Points {
		x1 := float64(pt.P) / big
		x2 := float64(pt.P) / small
		y1 := float64(pt.ReadPerBlock) / float64(time.Millisecond)
		y2 := float64(pt.ReadSmallPerBlock) / float64(time.Millisecond)
		if x2 != x1 {
			b := (y2 - y1) / (x2 - x1)
			bSum += b
			aSum += y1 - b*x1
		}
	}
	r.ReadSlope = bSum / n
	r.ReadBase = aSum / n
	for _, pt := range r.Points {
		r.WriteMean += float64(pt.WritePerBlock) / float64(time.Millisecond)
		r.OpenMean += float64(pt.OpenTime) / float64(time.Millisecond)
		r.DeleteCoeffMean += pt.DeleteCoeff
	}
	r.WriteMean /= n
	r.OpenMean /= n
	r.DeleteCoeffMean /= n
}

func measureTable2(p int, cfg Config, pt *Table2Point) error {
	return runSim(p, cfg, func(proc sim.Proc, cl *core.Cluster, c *core.Client) error {
		n := cfg.Records
		recs := workload.Records(cfg.Seed, n, cfg.PayloadBytes)

		// Create: average of a few fresh creates, on a settled cluster.
		const createTrials = 4
		settle(proc)
		start := proc.Now()
		for i := 0; i < createTrials; i++ {
			if _, err := c.Create(fmt.Sprintf("c%d", i)); err != nil {
				return err
			}
		}
		pt.CreateTime = (proc.Now() - start) / createTrials

		// Sequential write of the standard file.
		if _, err := c.Create("f"); err != nil {
			return err
		}
		start = proc.Now()
		for _, rec := range recs {
			if err := c.SeqWrite("f", rec); err != nil {
				return err
			}
		}
		pt.WritePerBlock = (proc.Now() - start) / time.Duration(n)

		// Open: average of a few opens of the populated file.
		const openTrials = 4
		start = proc.Now()
		for i := 0; i < openTrials; i++ {
			if _, err := c.Open("f"); err != nil {
				return err
			}
		}
		pt.OpenTime = (proc.Now() - start) / openTrials

		// Sequential read, amortized; the per-block average includes the
		// startup work (header and directory reads) that Read pays for
		// in Bridge's semi-stateless protocol.
		if _, err := c.Open("f"); err != nil {
			return err
		}
		start = proc.Now()
		for {
			_, eof, err := c.SeqRead("f")
			if err != nil {
				return err
			}
			if eof {
				break
			}
		}
		pt.ReadPerBlock = (proc.Now() - start) / time.Duration(n)

		// Same on a quarter-size file, to expose the startup term.
		smallN := n / 4
		if _, err := c.Create("small"); err != nil {
			return err
		}
		for i := 0; i < smallN; i++ {
			if err := c.SeqWrite("small", recs[i]); err != nil {
				return err
			}
		}
		if _, err := c.Open("small"); err != nil {
			return err
		}
		start = proc.Now()
		for {
			_, eof, err := c.SeqRead("small")
			if err != nil {
				return err
			}
			if eof {
				break
			}
		}
		pt.ReadSmallPerBlock = (proc.Now() - start) / time.Duration(smallN)

		// Delete the standard file.
		start = proc.Now()
		freed, err := c.Delete("f")
		if err != nil {
			return err
		}
		if freed != n {
			return fmt.Errorf("delete freed %d, want %d", freed, n)
		}
		pt.DeleteTotal = proc.Now() - start
		pt.DeleteCoeff = float64(pt.DeleteTotal) / float64(time.Millisecond) * float64(p) / float64(n)
		return nil
	})
}

func table2Report(r *Table2Result, _ Config) Report {
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	return Report{
		Tables: []Table{{
			Caption: fmt.Sprintf("Naive interface, %d-block file:", r.Records),
			Header:  []string{"p", "Create", "Open", "Read/blk", "ReadN/blk", "Write/blk", "Delete total", "Delete c (c·n/p ms)"},
			Rows: cells(r.Points, func(pt Table2Point) []string {
				return []string{fmt.Sprint(pt.P), fmtDur(pt.CreateTime), fmtDur(pt.OpenTime), fmtDur(pt.ReadPerBlock),
					fmtDur(pt.ReadBatchPerBlock), fmtDur(pt.WritePerBlock), fmtDur(pt.DeleteTotal), fmt.Sprintf("%.1f", pt.DeleteCoeff)}
			}),
			Note: "ReadN/blk, not in the paper, is the batched naive read: vectored scatter-gather plus server read-ahead.",
		}, {
			Caption: "Fitted against the paper's formulas:",
			Header:  []string{"op", "measured (fit)", "paper"},
			Rows: [][]string{
				{"Create", fmt.Sprintf("%.0f + %.1fp ms", r.CreateBase, r.CreateSlope), PaperTable2["Create"]},
				{"Open", fmt.Sprintf("%.0f ms", r.OpenMean), PaperTable2["Open"]},
				{"Read", fmt.Sprintf("%.1f + %.0fp/filesize ms", r.ReadBase, r.ReadSlope), PaperTable2["Read"]},
				{"Write", fmt.Sprintf("%.0f ms", r.WriteMean), PaperTable2["Write"]},
				{"Delete", fmt.Sprintf("%.1f·filesize/p ms", r.DeleteCoeffMean), PaperTable2["Delete"]},
			},
		}},
		Summary: fmt.Sprintf("Read %.1f ms/blk (paper 9.0); Write %.0f ms (paper 31); Delete %.1f·n/p ms (paper 20·n/p); "+
			"Create %.0f + %.1fp ms (paper 145 + 17.5p); the batched read %s/blk at p = %d, %s/blk at p = %d",
			r.ReadBase, r.WriteMean, r.DeleteCoeffMean, r.CreateBase, r.CreateSlope,
			fmtDur(first.ReadBatchPerBlock), first.P, fmtDur(last.ReadBatchPerBlock), last.P),
	}
}
