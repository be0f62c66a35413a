// Command jxta-bench regenerates every table and figure of the paper's
// evaluation section (§4) on the simulated Grid'5000 substrate. It runs the
// selected entries of experiments.Table and prints each one's report when it
// finishes: as text (tables, the paper's numbers next to the measured ones,
// ASCII charts) or, with -csv, as CSV blocks.
//
// Usage:
//
//	jxta-bench -exp all                 # everything, full scale (minutes)
//	jxta-bench -exp fig3left -quick     # scaled-down fast pass
//	jxta-bench -exp fig4right -csv      # machine-readable tables and series
//	jxta-bench -exp table1,fig4left -json out.json
//	jxta-bench -exp fig3left -cpuprofile cpu.out -memprofile mem.out
//
// -json writes every selected experiment's summary under
// experiments.<name>; the text and CSV output are renderings of the same
// summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"jxta/internal/experiments"
)

var (
	expFlag    = flag.String("exp", "all", "comma-separated experiments, or all: "+strings.Join(names(), "|"))
	quickFlag  = flag.Bool("quick", false, "scaled-down parameters (seconds instead of minutes)")
	csvFlag    = flag.Bool("csv", false, "emit CSV instead of text and ASCII plots")
	seedFlag   = flag.Int64("seed", 42, "master determinism seed")
	jsonFlag   = flag.String("json", "", "write a JSON summary of the selected experiments to this file")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
)

func main() {
	// All failure paths return through run so deferred profile writers
	// flush before the process exits.
	os.Exit(run())
}

func names() []string {
	var out []string
	for _, e := range experiments.Table {
		out = append(out, e.Name)
	}
	return out
}

// selectExperiments resolves the -exp list against the table.
func selectExperiments(list string) ([]experiments.Experiment, error) {
	if list == "all" {
		return experiments.Table, nil
	}
	var out []experiments.Experiment
	for _, name := range strings.Split(list, ",") {
		i := slices.IndexFunc(experiments.Table, func(e experiments.Experiment) bool { return e.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		out = append(out, experiments.Table[i])
	}
	return out, nil
}

func run() int {
	flag.Parse()
	start := time.Now()
	if *memProfile != "" {
		// Deferred so the heap profile is written on failure paths too.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	selected, err := selectExperiments(*expFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	render := renderText
	if *csvFlag {
		render = renderCSV
	}
	opts := experiments.Options{Seed: *seedFlag, Quick: *quickFlag}
	summaries := make(map[string]any, len(selected))
	for _, e := range selected {
		rep, err := e.Run(opts)
		if err == nil {
			err = render(os.Stdout, e, rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		summaries[e.Name] = rep.Summary
	}
	if *jsonFlag != "" {
		doc := map[string]any{
			"seed":        *seedFlag,
			"quick":       *quickFlag,
			"wall_ms":     float64(time.Since(start)) / float64(time.Millisecond),
			"experiments": summaries,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonFlag, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonFlag)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Second))
	return 0
}
