package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"time"
)

// fmtDur renders a duration compactly in the unit the paper used for the
// corresponding table.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d >= time.Minute:
		return fmt.Sprintf("%.2f min", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1f s", d.Seconds())
	default:
		return fmt.Sprintf("%.1f ms", float64(d)/float64(time.Millisecond))
	}
}

// RenderTable2 writes the Table 2 reproduction.
func (r *Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2: Bridge basic operations (naive interface, %d-block file)\n", r.Records)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tCreate\tOpen\tRead/blk\tReadN/blk\tWrite/blk\tDelete total\tDelete c (c·n/p ms)")
	for _, pt := range r.Points {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%.1f\n",
			pt.P, fmtDur(pt.CreateTime), fmtDur(pt.OpenTime),
			fmtDur(pt.ReadPerBlock), fmtDur(pt.ReadBatchPerBlock), fmtDur(pt.WritePerBlock),
			fmtDur(pt.DeleteTotal), pt.DeleteCoeff)
	}
	tw.Flush()
	fmt.Fprintln(w, "(ReadN/blk: batched naive read — vectored scatter-gather + server read-ahead)")
	fmt.Fprintf(w, "\nFitted vs paper:\n")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "op\tmeasured (fit)\tpaper")
	fmt.Fprintf(tw, "Create\t%.0f + %.1fp ms\t%s\n", r.CreateBase, r.CreateSlope, PaperTable2["Create"])
	fmt.Fprintf(tw, "Open\t%.0f ms\t%s\n", r.OpenMean, PaperTable2["Open"])
	fmt.Fprintf(tw, "Read\t%.1f + %.0fp/filesize ms\t%s\n", r.ReadBase, r.ReadSlope, PaperTable2["Read"])
	fmt.Fprintf(tw, "Write\t%.0f ms\t%s\n", r.WriteMean, PaperTable2["Write"])
	fmt.Fprintf(tw, "Delete\t%.1f * filesize/p ms\t%s\n", r.DeleteCoeffMean, PaperTable2["Delete"])
	tw.Flush()
}

// RenderCopy writes the Table 3 reproduction plus the records/second chart.
func RenderCopy(w io.Writer, rows []CopyRow, records int) {
	fmt.Fprintf(w, "Table 3: Copy tool performance (%d-record file)\n", records)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tcopy time\trec/s\tspeedup\tpaper time\tpaper speedup")
	for _, r := range rows {
		paperT, paperS := "-", "-"
		if r.PaperTime > 0 {
			paperT = fmtDur(r.PaperTime)
			paperS = fmt.Sprintf("%.1f", r.PaperSpeedup)
		}
		fmt.Fprintf(tw, "%d\t%s\t%.0f\t%.1f\t%s\t%s\n", r.P, fmtDur(r.Time), r.RecPerSec, r.Speedup, paperT, paperS)
	}
	tw.Flush()
	pts := make([]ChartPoint, len(rows))
	for i, r := range rows {
		pts[i] = ChartPoint{X: float64(r.P), Y: r.RecPerSec}
	}
	fmt.Fprintln(w, "\nCopy figure: records per second vs processors")
	RenderChart(w, pts, 48, 12)
}

// RenderSort writes the Table 4 reproduction plus its two figures.
func RenderSort(w io.Writer, rows []SortRow, records int) {
	fmt.Fprintf(w, "Table 4: Merge sort tool performance (%d-record file)\n", records)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tlocal sort\tmerge\ttotal\trec/s\tpaper local\tpaper merge\tpaper total")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%.0f\t%s\t%s\t%s\n",
			r.P, fmtDur(r.Local), fmtDur(r.Merge), fmtDur(r.Total), r.RecPerSec,
			fmtDur(r.PaperLocal), fmtDur(r.PaperMerge), fmtDur(r.PaperTotal))
	}
	tw.Flush()
	pts := make([]ChartPoint, len(rows))
	for i, r := range rows {
		pts[i] = ChartPoint{X: float64(r.P), Y: r.RecPerSec}
	}
	fmt.Fprintln(w, "\nSort figure: records per second vs processors")
	RenderChart(w, pts, 48, 12)
	fmt.Fprintln(w, "\nSort figure: phase times vs processors (L = local sort, M = merge)")
	var phase []LabeledPoint
	for _, r := range rows {
		phase = append(phase,
			LabeledPoint{X: float64(r.P), Y: r.Local.Minutes(), Mark: 'L'},
			LabeledPoint{X: float64(r.P), Y: r.Merge.Minutes(), Mark: 'M'})
	}
	RenderLabeledChart(w, phase, 48, 14, "minutes")
}

// RenderPlacement writes the A1 ablation.
func RenderPlacement(w io.Writer, rows []PlacementRow, reorg []ChunkReorgRow) {
	fmt.Fprintln(w, "Ablation A1: block placement strategies (Section 3)")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tstrategy\tP(window of p on p nodes)\tmean max load\teffective parallelism")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%.4f\t%.2f\t%.1f\n", r.P, r.Strategy, r.DistinctFrac, r.MeanMaxLoad, r.EffParallelism)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nGrowing a file by 50% (blocks that must move between nodes):")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\told blocks\tnew blocks\tround-robin moves\tchunked moves")
	for _, r := range reorg {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n", r.P, r.OldBlocks, r.NewBlocks, r.MovedRR, r.MovedChunk)
	}
	tw.Flush()
}

// RenderCreateTree writes the A2 ablation.
func RenderCreateTree(w io.Writer, rows []CreateTreeRow) {
	fmt.Fprintln(w, "Ablation A2: Create initiation, sequential loop vs binary tree (Section 4.5)")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "p\tsequential\ttree\tsaving")
	for _, r := range rows {
		saving := 1 - float64(r.Tree)/float64(r.Sequential)
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f%%\n", r.P, fmtDur(r.Sequential), fmtDur(r.Tree), saving*100)
	}
	tw.Flush()
}

// RenderParallelOpen writes the A3 ablation.
func RenderParallelOpen(w io.Writer, rows []ParallelOpenRow, p, records int) {
	fmt.Fprintf(w, "Ablation A3: parallel-open job width on a %d-node file system (%d records)\n", p, records)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "t (workers)\tread time\trec/s")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%.0f\n", r.T, fmtDur(r.Time), r.RecPerSec)
	}
	tw.Flush()
	fmt.Fprintf(w, "(virtual parallelism: widths beyond p=%d proceed in lock-step groups)\n", p)
}

// RenderAccessMethods writes the A4a comparison.
func RenderAccessMethods(w io.Writer, rows []AccessMethodRow, records int) {
	fmt.Fprintf(w, "Ablation A4: copy methods compared (%d records)\n", records)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "method\tp\ttime\trec/s")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.0f\n", r.Method, r.P, fmtDur(r.Time), r.RecPerSec)
	}
	tw.Flush()
}

// RenderFaults writes the A4b fault report.
func RenderFaults(w io.Writer, rep *FaultReport) {
	fmt.Fprintf(w, "Ablation A4: fault intolerance and remedies (p=%d, one node failed)\n", rep.P)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "unprotected file ruined\t%v\t(paper: \"a failure anywhere in the system is fatal\")\n", rep.UnprotectedRuined)
	fmt.Fprintf(tw, "mirrored file survives\t%v\twrite cost x%.1f, storage x%.1f (paper: \"storage capacity must be doubled\")\n",
		rep.MirrorSurvives, rep.MirrorWriteFactor, rep.MirrorStorageFactor)
	fmt.Fprintf(tw, "parity file survives\t%v\twrite cost x%.1f, storage x%.2f, degraded read x%.1f\n",
		rep.ParitySurvives, rep.ParityWriteFactor, rep.ParityStorageFactor, rep.ParityDegradedReadFactor)
	tw.Flush()
}

// ChartPoint is one unlabeled chart mark.
type ChartPoint struct{ X, Y float64 }

// LabeledPoint is a chart mark with its own rune.
type LabeledPoint struct {
	X, Y float64
	Mark rune
}

// RenderChart draws a simple ASCII scatter in the style of the paper's
// records-per-second figures.
func RenderChart(w io.Writer, pts []ChartPoint, width, height int) {
	lp := make([]LabeledPoint, len(pts))
	for i, p := range pts {
		lp[i] = LabeledPoint{X: p.X, Y: p.Y, Mark: '*'}
	}
	RenderLabeledChart(w, lp, width, height, "rec/s")
}

// RenderLabeledChart draws labeled points on a y-vs-x grid with linear
// axes.
func RenderLabeledChart(w io.Writer, pts []LabeledPoint, width, height int, yLabel string) {
	if len(pts) == 0 {
		return
	}
	maxX, maxY := 0.0, 0.0
	for _, p := range pts {
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if maxX == 0 || maxY == 0 {
		return
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		col := int(p.X / maxX * float64(width-1))
		row := height - 1 - int(p.Y/maxY*float64(height-1))
		grid[row][col] = p.Mark
	}
	fmt.Fprintf(w, "%8.0f |%s\n", maxY, string(grid[0]))
	for i := 1; i < height; i++ {
		fmt.Fprintf(w, "%8s |%s\n", "", string(grid[i]))
	}
	fmt.Fprintf(w, "%8s +%s\n", "0", strings.Repeat("-", width))
	fmt.Fprintf(w, "%8s  0%sp=%.0f   (%s vs p)\n", "", strings.Repeat(" ", width-8), maxX, yLabel)
}
