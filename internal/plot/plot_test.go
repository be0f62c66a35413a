package plot

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRenderBasic(t *testing.T) {
	c := Chart{Title: "Fig", XLabel: "minutes", YLabel: "l"}
	c.Add(Series{Label: "r=10", X: []float64{0, 1, 2}, Y: []float64{0, 5, 9}})
	out := c.Render()
	if !strings.Contains(out, "Fig") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "r=10") {
		t.Fatal("legend missing")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("data markers missing")
	}
	if !strings.Contains(out, "minutes") {
		t.Fatal("axis labels missing")
	}
}

func TestRenderEmpty(t *testing.T) {
	c := Chart{Title: "Empty"}
	out := c.Render()
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("empty chart rendering: %q", out)
	}
}

func TestRenderSkipsNaN(t *testing.T) {
	c := Chart{}
	c.Add(Series{Label: "s", X: []float64{0, math.NaN(), 2}, Y: []float64{1, 2, math.NaN()}})
	out := c.Render()
	// One plotted point plus the legend marker.
	if strings.Count(out, "*") != 2 {
		t.Fatalf("expected exactly one plotted point, got:\n%s", out)
	}
}

func TestRenderConstantSeries(t *testing.T) {
	c := Chart{}
	c.Add(Series{Label: "flat", X: []float64{1, 1}, Y: []float64{5, 5}})
	out := c.Render() // must not divide by zero
	if !strings.Contains(out, "flat") {
		t.Fatal("constant series broke rendering")
	}
}

func TestMultipleSeriesDistinctMarkers(t *testing.T) {
	c := Chart{}
	c.Add(Series{Label: "a", X: []float64{0}, Y: []float64{0}})
	c.Add(Series{Label: "b", X: []float64{1}, Y: []float64{1}})
	out := c.Render()
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("markers not distinct:\n%s", out)
	}
}

func TestDimensions(t *testing.T) {
	c := Chart{Width: 30, Height: 8}
	c.Add(Series{Label: "s", X: []float64{0, 1}, Y: []float64{0, 1}})
	out := c.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 8 grid rows + axis + xlabels + legend.
	if len(lines) < 10 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestCSVLongFormat(t *testing.T) {
	c := Chart{}
	c.Add(Series{Label: "a", X: []float64{0.5}, Y: []float64{3}})
	c.Add(Series{Label: "b", X: []float64{1, 2}, Y: []float64{4, 1e-7}})
	want := [][]string{{"series", "x", "y"}, {"a", "0.5", "3"}, {"b", "1", "4"}, {"b", "2", "1e-07"}}
	if got := c.CSV(); !reflect.DeepEqual(got, want) {
		t.Fatalf("CSV() = %q, want %q", got, want)
	}
}
