package main

import (
	"fmt"
	"math"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// train-lenet-coarse: a closed loop of back-to-back LeNet training
// iterations on the coarse engine with nproc workers, the net built with
// zoo defaults so the benchmark measures whatever the training default
// convolution is.
const (
	trainBatch   = 64
	trainSamples = 32 * trainBatch
	// warmupSteps run before the window and are not timed.
	warmupSteps = 2
	// gatePrefix is how many iterations from the first one the
	// correctness gate replays.
	gatePrefix = 4
	// trainMinOps is the smallest window: 40 steps put the tail at p75.
	trainMinOps = 40
)

type trainer struct {
	s   *solver.Solver
	eng core.Engine
}

// buildTrainer is the train workload's set-up: data source, LeNet,
// engine and solver.
func buildTrainer(seed uint64, eng core.Engine) (*trainer, error) {
	src := data.NewSyntheticMNIST(trainSamples, seed)
	specs, err := zoo.Build("lenet", src, zoo.Options{BatchSize: trainBatch, Seed: seed})
	if err != nil {
		eng.Close()
		return nil, err
	}
	n, err := net.New(specs, eng)
	if err != nil {
		eng.Close()
		return nil, err
	}
	s, err := solver.New(zoo.LeNetSolver(), n)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &trainer{s: s, eng: eng}, nil
}

func runTrain(cfg config) (*result, error) {
	res := &result{metrics: make(map[string]float64)}
	tr, setup, err := timeSetups(
		func() (*trainer, error) { return buildTrainer(cfg.seed, core.NewCoarse(cfg.procs)) },
		func(t *trainer) { t.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer tr.eng.Close()
	res.metrics[mSetup] = setup

	losses := tr.s.Step(warmupSteps)
	step := func() (time.Duration, error) {
		start := time.Now()
		l := tr.s.Step(1)
		d := time.Since(start)
		losses = append(losses, l...)
		return d, nil
	}
	// step cannot fail (Solver.Step returns no error), so neither can
	// the windows below.
	if !cfg.trace {
		times, wall, _ := window(cfg.seconds, trainMinOps, step)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.attempted = len(times)
		res.metrics[mRSS] = rss
		res.metrics[mRate] = float64(len(times)*trainBatch) / wall.Seconds()
		res.opSummary(durationsMS(times), tailPercentile(trainMinOps), 1)
	} else {
		untraced, _, _ := window(cfg.seconds/2, 1, step)
		tc := trace.New(cfg.procs)
		tr.s.SetTracer(tc)
		traced, _, _ := window(cfg.seconds/2, 1, step)
		tr.s.SetTracer(nil)
		res.attempted = len(untraced) + len(traced)
		trainLayerMetrics(res, tr, tc, len(traced), cfg.procs)
		res.metrics[mOverPct] = overheadPct(durationsMS(untraced), durationsMS(traced))
	}
	res.gate = replayGate(cfg.seed, cfg.procs, losses[:gatePrefix])
	return res, nil
}

// trainLayerMetrics derives the per-layer metrics from the spans of
// iters traced iterations.
func trainLayerMetrics(res *result, tr *trainer, tc *trace.Tracer, iters, workers int) {
	spans := tc.Snapshot()
	tot := driverTotals(spans)
	m := res.metrics
	addLayerMetrics(m, tot, layerKeys(tr.s.Net()), iters)
	m["core.reduce_us"] = us(phaseTotal(tot, trace.PhaseReduce)) / float64(iters)
	m["core.util"], m["core.imbalance"] = coreUtilization(trace.ComputeUtilization(spans, workers), workers)
	m["core.scratch_bytes"] = float64(tr.eng.ScratchBytes())
	m["net.memory_bytes"] = float64(tr.s.Net().MemoryBytes())
	m["solver.update_us"] = us(phaseTotal(tot, trace.PhaseUpdate)) / float64(iters)
	m[mDropped] = float64(tc.Dropped())
}

// coreUtilization folds the utilization rows of the engine's parallel
// regions into one utilization (worker busy time over workers × region
// wall time) and one busy-weighted imbalance.
func coreUtilization(rows []trace.Utilization, workers int) (util, imbalance float64) {
	var busy, wall time.Duration
	var weighted float64
	for _, u := range rows {
		if u.Phase == trace.PhaseComm {
			continue
		}
		busy += u.Busy
		wall += u.Wall
		weighted += u.Imbalance * float64(u.Busy)
	}
	if wall > 0 {
		util = float64(busy) / (float64(workers) * float64(wall))
	}
	if busy > 0 {
		imbalance = weighted / float64(busy)
	}
	return util, imbalance
}

// seqTolerance is the relative loss deviation the coarse engine may
// show against the sequential engine: with more than one worker the
// ordered reduction sums per-band partial gradients, which round
// differently than one serial chain, so the two agree to float-summation
// tolerance, not to the bit (the repository's determinism contract).
const seqTolerance = 1e-5

// replayGate checks the first iterations of the run against two
// replays from the same seed: a fresh coarse engine with the same
// worker count must reproduce the losses to the bit, and the sequential
// engine — the paper's convergence invariance — to seqTolerance.
func replayGate(seed uint64, workers int, got []float64) error {
	same, err := buildTrainer(seed, core.NewCoarse(workers))
	if err != nil {
		return err
	}
	defer same.eng.Close()
	if err := sameBits("coarse replay loss", same.s.Step(len(got)), got); err != nil {
		return err
	}
	seq, err := buildTrainer(seed, core.NewSequential())
	if err != nil {
		return err
	}
	defer seq.eng.Close()
	for i, want := range seq.s.Step(len(got)) {
		if dev := math.Abs(got[i]-want) / math.Abs(want); !(dev <= seqTolerance) {
			return fmt.Errorf("loss %d: coarse %v, sequential %v (relative deviation %.3g > %g)", i, got[i], want, dev, seqTolerance)
		}
	}
	return nil
}

// sameBits compares two loss traces bit for bit.
func sameBits(what string, want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s trace has %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("%s %d: got %v, want %v (bits differ)", what, i, got[i], want[i])
		}
	}
	return nil
}
