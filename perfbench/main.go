// Command perfbench is the repository's benchmark: one process runs one
// workload — coarse-grain LeNet training, open-loop LeNet serving, or
// two-rank LeNet training over loopback TCP — for a fixed time, checks
// the program's outputs, and prints every metric of the requested kind
// as the last line of standard output:
//
//	perfbench --workload train-lenet-coarse --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs an untraced window and a traced window and prints the per-layer
// metrics, derived from the program's own spans and from timing calls
// into each layer's public functions. BENCHMARK.md in this directory
// describes the workloads, the metrics and their expected interactions.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// procs is nproc: GOMAXPROCS, the coarse engine's worker count and
	// the cluster's rank count.
	procs int
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	// gate is the correctness gate's verdict; non-nil fails the run.
	gate    error
	metrics map[string]float64
	// notes are human-readable lines printed before the JSON line.
	notes []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// opSummary adds op_ms.p50, the median of opMS, and op_ms.tail: opMS,
// in the order the operations started, is cut into parts
// consecutive slices, and the tail is the median of the slices' tailP
// percentiles (with one part, the percentile of the whole window).
// Failed operations are +Inf.
func (r *result) opSummary(opMS []float64, tailP float64, parts int) {
	tails := make([]float64, parts)
	for i := range tails {
		tails[i] = percentile(opMS[i*len(opMS)/parts:(i+1)*len(opMS)/parts], tailP)
	}
	r.metrics[mOpP50] = median(opMS)
	r.metrics[mOpTail] = median(tails)
	per := len(opMS) / parts
	r.notef("op_ms: %d samples, p50 %.3f; tail %.3f = median over %d part(s) of %d samples of each part's p%g (%d samples beyond it)",
		len(opMS), r.metrics[mOpP50], r.metrics[mOpTail], parts, per, tailP, per-1-rankIndex(tailP, per))
}

var workloads = map[string]func(config) (*result, error){
	wTrain:   runTrain,
	wServe:   runServe,
	wCluster: runCluster,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+wTrain+" | "+wServe+" | "+wCluster)
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and weights")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(cfg, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, traceFlag int) error {
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if !(cfg.seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	cfg.trace = traceFlag == 1
	cfg.procs = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.procs)
	fmt.Println("perfbench: host", hostStamp(cfg.procs))
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %d\n", cfg.workload, cfg.seed, cfg.seconds, traceFlag)

	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if res.gate != nil {
		res.failed = res.attempted
		res.notef("correctness gate FAILED: %v", res.gate)
	}
	for _, n := range res.notes {
		fmt.Println("perfbench:", n)
	}
	line, err := resultLine(res, cfg.trace)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// resultLine renders the final JSON object: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one. A per-layer
// metric of a layer the workload bypasses reads 0.
func resultLine(res *result, traced bool) ([]byte, error) {
	cat := endToEnd
	if traced {
		cat = perLayer
	}
	out := resultJSON{
		Correct:   res.gate == nil,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]valueUnit, len(cat)),
	}
	if res.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	for _, m := range cat {
		v, ok := res.metrics[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		switch {
		case math.IsNaN(v):
			return nil, fmt.Errorf("metric %s is NaN", m.Name)
		case math.IsInf(v, 1):
			// Only failed operations are +Inf; report the largest
			// finite value so the line stays valid JSON.
			v = math.MaxFloat64
		}
		out.Metrics[m.Name] = valueUnit{Value: v, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// hostStamp describes the machine: nproc, GOMAXPROCS, Go version, CPU
// model and the vector extensions the GEMM kernels dispatch on.
func hostStamp(procs int) string {
	model, flags := "unknown", ""
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				model = strings.TrimSpace(v)
			case "flags":
				flags = " " + strings.TrimSpace(v) + " "
			}
			if model != "unknown" && flags != "" {
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q avx2=%t avx512f=%t",
		procs, runtime.GOMAXPROCS(0), runtime.Version(), model,
		strings.Contains(flags, " avx2 "), strings.Contains(flags, " avx512f "))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 25

// timeSetups runs build setupReps times, closing every instance but the
// last, and returns the last instance and the median set-up time. Each
// set-up starts from a collected heap, so the garbage of the instances
// before it neither triggers a collection inside the timed set-up nor
// raises the peak RSS.
func timeSetups[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			if i > 0 {
				closeFn(last)
			}
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 {
			closeFn(last)
		}
		last = v
	}
	runtime.GC()
	sort.Float64s(times)
	fmt.Printf("perfbench: setup_s is the median of %d set-ups (fastest %.6f s, slowest %.6f s)\n",
		len(times), times[0], times[len(times)-1])
	return last, median(times), nil
}

// window runs op until seconds have passed and at least minOps
// operations have run (a window that reaches neither within three times
// its length stops anyway). It returns each operation's time, as op
// measured it, and the window's wall time.
func window(seconds float64, minOps int, op func() (time.Duration, error)) ([]time.Duration, time.Duration, error) {
	length := time.Duration(seconds * float64(time.Second))
	var times []time.Duration
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= length && len(times) >= minOps) || el >= 3*length {
			return times, el, nil
		}
		d, err := op()
		if err != nil {
			return times, time.Since(start), err
		}
		times = append(times, d)
	}
}
