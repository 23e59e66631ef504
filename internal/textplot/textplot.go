// Package textplot renders simple ASCII charts — line series, scatter
// plots (with optional log-log axes) and histograms — so the experiment
// harness can display every figure of the paper in a terminal without
// external plotting dependencies.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Config controls chart geometry.
type Config struct {
	Width  int // plot area columns (default 60)
	Height int // plot area rows (default 16)
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	LogY   bool
}

func (c Config) withDefaults() Config {
	if c.Width <= 0 {
		c.Width = 60
	}
	if c.Height <= 0 {
		c.Height = 16
	}
	return c
}

// Series is one named line/scatter series.
type Series struct {
	Name   string
	X, Y   []float64
	Marker rune // default '*'
}

var markers = []rune{'*', '+', 'o', 'x', '#', '@'}

// Plot renders the series into an ASCII chart. Series with mismatched
// X/Y lengths are truncated to the shorter side; non-finite and (on log
// axes) non-positive points are skipped.
func Plot(cfg Config, series ...Series) string {
	cfg = cfg.withDefaults()
	type pt struct {
		x, y float64
		m    rune
	}
	var pts []pt
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for si, s := range series {
		marker := s.Marker
		if marker == 0 {
			marker = markers[si%len(markers)]
		}
		n := len(s.X)
		if len(s.Y) < n {
			n = len(s.Y)
		}
		for i := 0; i < n; i++ {
			x, y := s.X[i], s.Y[i]
			if !finite(x) || !finite(y) {
				continue
			}
			if cfg.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			if cfg.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			pts = append(pts, pt{x, y, marker})
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	var sb strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&sb, "%s\n", cfg.Title)
	}
	if len(pts) == 0 {
		sb.WriteString("(no data)\n")
		return sb.String()
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	if minY == maxY {
		minY, maxY = minY-1, maxY+1
	}
	grid := make([][]rune, cfg.Height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", cfg.Width))
	}
	for _, p := range pts {
		col := int(math.Round((p.x - minX) / (maxX - minX) * float64(cfg.Width-1)))
		row := int(math.Round((p.y - minY) / (maxY - minY) * float64(cfg.Height-1)))
		grid[cfg.Height-1-row][col] = p.m
	}
	// Y-axis labels on first, middle and last rows.
	yVal := func(row int) float64 {
		frac := float64(cfg.Height-1-row) / float64(cfg.Height-1)
		v := minY + frac*(maxY-minY)
		if cfg.LogY {
			v = math.Pow(10, v)
		}
		return v
	}
	for row := 0; row < cfg.Height; row++ {
		label := "          "
		if row == 0 || row == cfg.Height/2 || row == cfg.Height-1 {
			label = fmt.Sprintf("%10.3g", yVal(row))
		}
		fmt.Fprintf(&sb, "%s |%s\n", label, string(grid[row]))
	}
	fmt.Fprintf(&sb, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", cfg.Width))
	xlo, xhi := minX, maxX
	if cfg.LogX {
		xlo, xhi = math.Pow(10, xlo), math.Pow(10, xhi)
	}
	fmt.Fprintf(&sb, "%s  %-12.4g%s%12.4g\n", strings.Repeat(" ", 10), xlo,
		strings.Repeat(" ", max(1, cfg.Width-26)), xhi)
	if cfg.XLabel != "" || cfg.YLabel != "" {
		fmt.Fprintf(&sb, "%s  x: %s   y: %s\n", strings.Repeat(" ", 10), cfg.XLabel, cfg.YLabel)
	}
	var legend []string
	for si, s := range series {
		if s.Name == "" {
			continue
		}
		marker := s.Marker
		if marker == 0 {
			marker = markers[si%len(markers)]
		}
		legend = append(legend, fmt.Sprintf("%c %s", marker, s.Name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&sb, "%s  legend: %s\n", strings.Repeat(" ", 10), strings.Join(legend, "   "))
	}
	return sb.String()
}

// Bar is one labeled histogram bar.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders horizontal bars scaled to the maximum value.
func BarChart(title string, width int, bars []Bar) string {
	if width <= 0 {
		width = 50
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n", title)
	}
	if len(bars) == 0 {
		sb.WriteString("(no data)\n")
		return sb.String()
	}
	maxV := 0.0
	maxLabel := 0
	for _, b := range bars {
		if b.Value > maxV {
			maxV = b.Value
		}
		if len(b.Label) > maxLabel {
			maxLabel = len(b.Label)
		}
	}
	for _, b := range bars {
		n := 0
		if maxV > 0 && b.Value > 0 {
			n = int(math.Round(b.Value / maxV * float64(width)))
			if n == 0 {
				n = 1 // visible tick for small nonzero values
			}
		}
		fmt.Fprintf(&sb, "%-*s |%s %g\n", maxLabel, b.Label, strings.Repeat("#", n), b.Value)
	}
	return sb.String()
}

// Histogram renders bin counts as a bar chart with range labels.
func Histogram(title string, width int, los, his []float64, counts []int) string {
	n := len(counts)
	if len(los) < n {
		n = len(los)
	}
	if len(his) < n {
		n = len(his)
	}
	bars := make([]Bar, n)
	for i := 0; i < n; i++ {
		bars[i] = Bar{
			Label: fmt.Sprintf("[%g, %g)", los[i], his[i]),
			Value: float64(counts[i]),
		}
	}
	return BarChart(title, width, bars)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
