package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Table is one table of a report: a caption, a header, rows of cells and a
// note under them. A figure is a Table whose Chart holds the paper's figure
// as a preformatted ASCII chart in place of a header and rows.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
	Chart   string
	Note    string
}

// Report is what one experiment shows: its tables and figures in order,
// then a one-line summary of its headline numbers, which README's results
// table repeats.
type Report struct {
	Tables  []Table
	Summary string
}

// WriteMarkdown writes r as markdown: the block bridgebench prints for an
// experiment and the documents hold for it.
func (r Report) WriteMarkdown(w io.Writer) {
	var b strings.Builder
	for _, t := range r.Tables {
		if t.Caption != "" {
			fmt.Fprintf(&b, "%s\n\n", t.Caption)
		}
		if t.Chart != "" {
			fmt.Fprintf(&b, "```\n%s```\n\n", t.Chart)
		} else {
			fmt.Fprintf(&b, "| %s |\n|%s\n", strings.Join(t.Header, " | "), strings.Repeat("---|", len(t.Header)))
			for _, row := range t.Rows {
				fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
			}
			b.WriteString("\n")
		}
		if t.Note != "" {
			fmt.Fprintf(&b, "%s\n\n", t.Note)
		}
	}
	if r.Summary != "" {
		fmt.Fprintf(&b, "**Summary:** %s.\n", r.Summary)
	}
	io.WriteString(w, strings.TrimRight(b.String(), "\n")+"\n")
}

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

// cells formats each row of rows into one table row.
func cells[T any](rows []T, row func(T) []string) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = row(r)
	}
	return out
}

// chartPoint is one chart mark.
type chartPoint struct {
	X, Y float64
	Mark rune
}

// chart draws labeled points on a y-vs-x grid with linear axes, in the
// style of the paper's records-per-second figures.
func chart(pts []chartPoint, width, height int, yLabel string) string {
	maxX, maxY := 0.0, 0.0
	for _, p := range pts {
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if maxX == 0 || maxY == 0 {
		return ""
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
	var b strings.Builder
	for i, row := range grid {
		axis := ""
		if i == 0 {
			axis = fmt.Sprintf("%.0f", maxY)
		}
		fmt.Fprintf(&b, "%s\n", strings.TrimRight(fmt.Sprintf("%8s |%s", axis, string(row)), " "))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "0", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  0%sp=%.0f   (%s vs p)\n", "", strings.Repeat(" ", width-8), maxX, yLabel)
	return b.String()
}

// rateChart is the records-per-second figure of a sweep.
func rateChart[T any](rows []T, point func(T) (p int, recPerSec float64)) string {
	pts := make([]chartPoint, len(rows))
	for i, r := range rows {
		p, y := point(r)
		pts[i] = chartPoint{X: float64(p), Y: y, Mark: '*'}
	}
	return chart(pts, 48, 12, "rec/s")
}
