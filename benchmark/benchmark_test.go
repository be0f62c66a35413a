package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogWithinContract checks the limits the driver refuses a
// benchmark over: name and unit character sets, unique names, at most 16
// end-to-end and 128 per-layer metrics, bounds of at most a quarter, and a
// setup_s in seconds.
func TestCatalogWithinContract(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the allowed characters", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the allowed characters", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, d := range perLayer {
		check(d)
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q is invalid or collides with a metric", w)
		}
		seen[w] = true
	}
	for name := range exactInSim {
		if !seen[name] {
			t.Errorf("exactInSim names %s, which is no metric", name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the program equal:
// the driver reads the file, the program emits from the catalog.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program defaults to %d", file.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, the program runs %v", names, workloadNames)
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the program", len(file.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: file has %+v, program has %+v", i, f, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the program", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("per-layer metric %d: file has %+v, program has %+v", i, f, d)
		}
	}
}

func TestPercentile(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.05, 1}, {0, 1}} {
		if got := percentile(sample, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one value = %v", got)
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values Python's
// statistics.quantiles(data, n=4) returns, since the driver uses that.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func quickRun(t *testing.T, workload string, trace bool) *outcome {
	t.Helper()
	out, err := runWorkload(options{workload: workload, seed: 7, seconds: 2, trace: trace, quick: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, out.Correct, out.Attempted, out.Failed)
	}
	return out
}

// TestQuickPassEmitsAndRepeats runs every workload twice at -quick size:
// every end-to-end metric must come out, non-zero and with its unit, and
// the metrics that are counts or virtual time must repeat bit for bit. The
// subtests run one after another: heap_bytes_per_peer and peak_rss_mb are
// read from the whole process, so a workload must have it to itself.
func TestQuickPassEmitsAndRepeats(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			a, b := quickRun(t, w, false), quickRun(t, w, false)
			for _, d := range endToEnd {
				m, ok := a.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || m.Value == 0 {
					t.Errorf("metric %s = %+v (present %v)", d.Name, m, ok)
				}
				if exactInSim[d.Name] && w != wlLive && m.Value != b.Metrics[d.Name].Value {
					t.Errorf("exact metric %s gave %v then %v", d.Name, m.Value, b.Metrics[d.Name].Value)
				}
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(a.Metrics), len(endToEnd))
			}
		})
	}
}

// TestQuickTraceEmitsEveryLayerMetric runs the traced pass of one simulated
// workload and of the live one: every per-layer metric must come out and
// the span file must be written.
func TestQuickTraceEmitsEveryLayerMetric(t *testing.T) {
	for _, w := range []string{wlChurn, wlLive} {
		t.Run(w, func(t *testing.T) {
			out := quickRun(t, w, true)
			for _, d := range perLayer {
				if m, ok := out.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s = %+v (present %v)", d.Name, m, ok)
				}
			}
			if out.trace == nil || out.trace.SpansTotal == 0 || len(out.trace.OkShares) == 0 {
				t.Error("no spans or no per-phase ok shares in the trace")
			}
			if out.Metrics["document.unmarshal_ns"].Value <= 0 || out.Metrics["message.clone_ns"].Value <= 0 {
				t.Error("a kernel reported no time")
			}
		})
	}
}
