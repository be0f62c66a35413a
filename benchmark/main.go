// Command benchmark is the repository's benchmark: four fixed workloads, the
// end-to-end metrics a user of the system sees, and a traced run that
// produces per-layer metrics by timing each module's public functions from
// outside. README.md in this directory says why each workload and metric
// exists and how to run them.
//
//	bash benchmark/run.sh                                  every workload, end to end
//	bash benchmark/run.sh --workload edges-10k             one workload
//	bash benchmark/run.sh --workload live-tcp --trace 1    its traced run
//	bash benchmark/run.sh --selfcheck                      two sets of runs, compared
//
// With --workload, the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	// Load comes from one busy thread plus the collector (simulated
	// workloads) or two client goroutines (live): two cores' worth.
	runtime.GOMAXPROCS(2)

	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run in this process (default: each of the four in a process of its own)")
	flag.Int64Var(&opt.seed, "seed", 42, "seed every generated input derives from")
	flag.IntVar(&opt.seconds, "seconds", defaultSeconds, "nominal measuring time; it fixes the amount of work, the clock never does")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, which reports the per-layer metrics and writes a span file")
	flag.BoolVar(&opt.quick, "quick", false, "shrink populations about tenfold (smoke runs only, never for recorded numbers)")
	flag.StringVar(&opt.outDir, "out", "benchmark/out", "directory for span files")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced pass as two alternating sets and compare them against the bounds")
	runs := flag.Int("runs", 5, "runs per set for -selfcheck (at least 5)")
	baseline := flag.String("baseline", "", "with -selfcheck: write the result to this file")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-quick] [-selfcheck [-runs n] [-baseline file]]")
		os.Exit(2)
	}
	opt.trace = trace == 1

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(opt, *runs, *baseline)
	case opt.workload == "":
		err = runAll(opt)
	default:
		var out *outcome
		if out, err = runWorkload(opt); err == nil {
			err = printOutcome(out, opt)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// printOutcome prints every metric by name with its unit, then the report
// as the last line.
func printOutcome(out *outcome, opt options) error {
	m := describeMachine()
	kind := "end-to-end"
	if opt.trace {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("workload %s  seed %d  seconds %d  %s\n", out.workload, out.seed, opt.seconds, kind)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s, %s\n", m.NProc, m.GoMaxProcs, m.GoVersion, m.CPUModel)
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := out.Metrics[d.Name]
		fmt.Printf("  %-36s %s %s\n", d.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	line, err := json.Marshal(out.report)
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// childArgs are the flags a per-workload child process is started with.
func childArgs(opt options, workload string) []string {
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.Itoa(opt.seconds),
		"-out", opt.outDir,
	}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	return args
}

// runAll runs each workload in a fresh process of this same program, so
// that peak RSS and the heap baseline of one are not the previous one's.
func runAll(opt options) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	for _, w := range workloadNames {
		cmd := exec.Command(self, childArgs(opt, w)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
		fmt.Println()
	}
	return nil
}
