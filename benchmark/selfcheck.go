package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// The self-check answers one question before a bound is trusted: do two
// sets of runs of the same code agree within it? It makes the untraced pass
// twice over, set A and set B, run i of either set on seed base+i, the order
// of the two alternating from run to run, and compares per workload and
// metric. It mirrors what the driver does with ten seeds per set.

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is what
// the driver computes spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

type setSummary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3-Q1)/median
	Values []float64 `json:"values"`
}

func summarize(values []float64) setSummary {
	q1, q2, q3 := quartiles(values)
	s := setSummary{Median: q2, Q1: q1, Q3: q3, Values: values}
	if q2 != 0 {
		s.Spread = (q3 - q1) / math.Abs(q2)
	}
	return s
}

type checkRow struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Unit     string     `json:"unit"`
	Better   string     `json:"better"`
	Bound    float64    `json:"bound"`
	A        setSummary `json:"set_a"`
	B        setSummary `json:"set_b"`
	// Diff is the relative difference of the two medians, positive when B
	// is the worse one.
	Diff float64 `json:"diff"`
	// Exact is set for counts and virtual-time metrics of the simulated
	// workloads; ExactEqual then says whether both sets agreed bit for bit
	// on every seed.
	Exact      bool   `json:"exact"`
	ExactEqual bool   `json:"exact_equal"`
	Verdict    string `json:"verdict"`
}

type selfcheckFile struct {
	Note     string                        `json:"note"`
	Machine  machine                       `json:"machine"`
	Seconds  int                           `json:"seconds"`
	Runs     int                           `json:"runs_per_set"`
	BaseSeed int64                         `json:"base_seed"`
	Pass     bool                          `json:"pass"`
	Baseline map[string]map[string]float64 `json:"baseline"` // workload -> metric -> median of all runs
	Rows     []checkRow                    `json:"rows"`
}

// runChild runs one workload in a child process and parses its report.
func runChild(self string, opt options, workload string) (*report, error) {
	cmd := exec.Command(self, childArgs(opt, workload)...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s, seed %d: %w", workload, opt.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("workload %s: last line is not a report: %w", workload, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("workload %s, seed %d: reported correct=false", workload, opt.seed)
	}
	return &rep, nil
}

func runSelfcheck(opt options, runs int, baselinePath string) error {
	if runs < 5 {
		return fmt.Errorf("-runs must be at least 5")
	}
	if opt.trace {
		return fmt.Errorf("-selfcheck compares end-to-end metrics: use it without -trace")
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	workloads := workloadNames
	if opt.workload != "" {
		workloads = []string{opt.workload}
	}
	// values[set][workload][metric] = one value per run.
	values := [2]map[string]map[string][]float64{{}, {}}
	for _, set := range values {
		for _, w := range workloads {
			set[w] = map[string][]float64{}
		}
	}
	for i := 0; i < runs; i++ {
		child := opt
		child.seed = opt.seed + int64(i)
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, set := range order {
			for _, w := range workloads {
				rep, err := runChild(self, child, w)
				if err != nil {
					return err
				}
				for name, m := range rep.Metrics {
					values[set][w][name] = append(values[set][w][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %c %s done\n", i+1, runs, 'A'+set, w)
			}
		}
	}

	file := selfcheckFile{
		Note:    "two sets of runs of the same code; a later change is judged against these medians and bounds",
		Machine: describeMachine(), Seconds: opt.seconds, Runs: runs, BaseSeed: opt.seed, Pass: true,
		Baseline: map[string]map[string]float64{},
	}
	for _, w := range workloads {
		file.Baseline[w] = map[string]float64{}
		for _, d := range endToEnd {
			a, b := values[0][w][d.Name], values[1][w][d.Name]
			row := checkRow{Workload: w, Metric: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
				A: summarize(a), B: summarize(b), Exact: exactInSim[d.Name] && w != wlLive, ExactEqual: true, Verdict: "ok"}
			if row.A.Median != 0 {
				row.Diff = (row.B.Median - row.A.Median) / math.Abs(row.A.Median)
				if d.Better == "higher" {
					row.Diff = -row.Diff
				}
			}
			for i := range a {
				if a[i] != b[i] {
					row.ExactEqual = false
				}
			}
			switch {
			case row.Exact && !row.ExactEqual:
				row.Verdict = "FAIL: an exact metric differs between the sets"
			case math.Abs(row.Diff) > d.Bound:
				row.Verdict = "FAIL: the medians differ by more than the bound"
			case row.A.Spread > d.Bound || row.B.Spread > d.Bound:
				row.Verdict = "FAIL: the spread across seeds exceeds the bound"
			case math.Abs(row.Diff) > d.Bound/3 || row.A.Spread > d.Bound/3 || row.B.Spread > d.Bound/3:
				row.Verdict = "ok (within the bound, above a third of it)"
			}
			if row.Verdict[:2] != "ok" {
				file.Pass = false
			}
			file.Rows = append(file.Rows, row)
			_, file.Baseline[w][d.Name], _ = quartiles(append(append([]float64(nil), a...), b...))
		}
	}

	fmt.Printf("%-16s %-20s %14s %14s %8s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "diff", "bound", "verdict")
	for _, r := range file.Rows {
		fmt.Printf("%-16s %-20s %14.6g %14.6g %7.2f%% %7.2f%% %+7.2f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A.Median, r.B.Median, 100*r.A.Spread, 100*r.B.Spread, 100*r.Diff, 100*r.Bound, r.Verdict)
	}
	if baselinePath != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return fmt.Errorf("encode baseline: %w", err)
		}
		if err := os.MkdirAll(filepath.Dir(baselinePath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !file.Pass {
		return fmt.Errorf("self-check failed: see the FAIL rows")
	}
	return nil
}
