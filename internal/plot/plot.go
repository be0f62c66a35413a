// Package plot renders time series and scatter data as ASCII charts, so
// cmd/jxta-bench can show the reproduced figures directly in a terminal,
// and as long-format CSV records.
package plot

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Series is one labeled curve.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Chart collects curves and renders them on a shared grid.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot area columns (default 72)
	Height int // plot area rows (default 20)
	series []Series
}

// markers assigns one rune per curve.
var markers = []rune{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Add appends a curve. Points with NaN are skipped at render time.
func (c *Chart) Add(s Series) { c.series = append(c.series, s) }

// Render draws the chart.
func (c *Chart) Render() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 72
	}
	if h <= 0 {
		h = 20
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range c.series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			points++
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	var sb strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s\n", c.Title)
	}
	if points == 0 {
		sb.WriteString("(no data)\n")
		return sb.String()
	}
	if minX == maxX {
		maxX = minX + 1
	}
	if minY == maxY {
		maxY = minY + 1
	}
	grid := make([][]rune, h)
	for i := range grid {
		grid[i] = make([]rune, w)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	for si, s := range c.series {
		m := markers[si%len(markers)]
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - minX) / (maxX - minX) * float64(w-1))
			row := h - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(h-1))
			grid[row][col] = m
		}
	}
	yTop := fmt.Sprintf("%.4g", maxY)
	yBot := fmt.Sprintf("%.4g", minY)
	pad := len(yTop)
	if len(yBot) > pad {
		pad = len(yBot)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", pad)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", pad, yTop)
		case h - 1:
			label = fmt.Sprintf("%*s", pad, yBot)
		}
		fmt.Fprintf(&sb, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&sb, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", w))
	fmt.Fprintf(&sb, "%s  %-10.4g%s%10.4g\n", strings.Repeat(" ", pad),
		minX, strings.Repeat(" ", maxInt(0, w-20)), maxX)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&sb, "%s  x: %s   y: %s\n", strings.Repeat(" ", pad), c.XLabel, c.YLabel)
	}
	for si, s := range c.series {
		fmt.Fprintf(&sb, "%s   %c %s\n", strings.Repeat(" ", pad), markers[si%len(markers)], s.Label)
	}
	return sb.String()
}

// CSV returns the chart's curves as long-format records: a series,x,y
// header, then one record per point.
func (c *Chart) CSV() [][]string {
	out := [][]string{{"series", "x", "y"}}
	for _, s := range c.series {
		for i := range s.X {
			out = append(out, []string{s.Label,
				strconv.FormatFloat(s.X[i], 'g', -1, 64), strconv.FormatFloat(s.Y[i], 'g', -1, 64)})
		}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
