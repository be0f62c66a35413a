package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far (getrusage), every
// goroutine and the collector included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// liveHeap settles the collector (two cycles, so memory freed by the first
// cycle's finalizers is gone too) and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memSample is the allocator and collector state at one instant.
type memSample struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.TotalAlloc, ms.NumGC, time.Duration(ms.PauseTotalNs)}
}

func (a memSample) sub(b memSample) memSample {
	return memSample{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

// stopwatch measures wall and CPU time over one region.
type stopwatch struct {
	t0 time.Time
	c0 time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (w stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(w.t0), cpuTime() - w.c0
}

// percentile returns the p-quantile (0..1) of an ascending sample by the
// nearest-rank rule: the smallest value with at least p of the sample at or
// below it. An empty sample has no percentile; callers check the count.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// machine describes where the numbers were taken: the output records it so
// two result files from different boxes are never compared by accident.
type machine struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func describeMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return m
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				m.CPUModel = strings.TrimSpace(v)
			}
			break
		}
	}
	return m
}

// The bandwidth probe. On this kind of shared box the dominant noise is not
// lost CPU time (steal is 0.1 %) but slower execution while neighbours load
// the memory system: for minutes at a time every workload, and its CPU time
// with it, runs 20-50 % slower, and nothing measured inside one run averages
// that away. A sequential read of a buffer far larger than the caches slows
// down by the same share (an arithmetic loop does not move at all, pointer
// chases of any size track only some episodes), so host times are divided by
// the probe's slowdown: over four episodes that cut the spread of
// peerview-r200's body from 20 % to 7 %.

// probeNominal is what one probe takes on the quiet reference box. It only
// fixes the scale: both sides of any comparison are divided by it alike.
const probeNominal = 2300 * time.Microsecond

// probeEvery is the least host time between two probes.
const probeEvery = 40 * time.Millisecond

var (
	probeOnce sync.Once
	probeBuf  []uint64
	probeSink atomic.Uint64
)

// probe reads 16 MB sequentially and returns how long that took. After its
// first call it allocates nothing, so it never triggers or pays for a
// collection.
func probe() time.Duration {
	probeOnce.Do(func() {
		probeBuf = make([]uint64, 2<<20)
		for i := range probeBuf {
			probeBuf[i] = uint64(i)
		}
	})
	t0 := time.Now()
	var sum uint64
	for _, v := range probeBuf {
		sum += v
	}
	d := time.Since(t0)
	probeSink.Store(sum) // keeps the loop from being optimised away
	return d
}

// slowdown is how much slower than the quiet reference box the memory
// system ran while the probes were taken: their median over the nominal.
func slowdown(probes []time.Duration) float64 {
	if len(probes) == 0 {
		return 1
	}
	xs := make([]float64, len(probes))
	for i, d := range probes {
		xs[i] = float64(d)
	}
	return median(xs) / float64(probeNominal)
}
