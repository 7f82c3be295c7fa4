// Command dnntrain trains a network defined in a Caffe-style prototxt file
// (or one of the built-in zoo networks) under a chosen execution engine:
//
//	dnntrain -model configs/lenet.prototxt -solver configs/lenet_solver.prototxt \
//	         -engine coarse -workers 8 -iters 500
//	dnntrain -zoo cifar10-full -engine sequential -iters 100
//
// Data comes from real MNIST/CIFAR files under -data when present, and
// from the deterministic synthetic generators otherwise.
//
// With -trace out.json the whole run is recorded by the span tracer
// (internal/trace) and exported as Chrome trace-event JSON — load it in
// chrome://tracing or https://ui.perfetto.dev to see every layer, phase,
// schedule band and worker rank on a timeline (see OBSERVABILITY.md):
//
//	dnntrain -zoo lenet -engine coarse -workers 8 -iters 50 -trace out.json
//
// Fault tolerance (see ROBUSTNESS.md): -snapshot-every writes crash-safe
// checkpoints into -snapshot-dir with a keep-last-K retention policy,
// -resume accepts either a snapshot file or a checkpoint directory (the
// newest *valid* checkpoint is auto-discovered, falling back past corrupt
// or truncated files), -guard-policy arms the training health monitor
// (NaN/Inf and gradient-norm guardrails with halt / skip / rollback
// recovery), and SIGINT checkpoints before exiting. The -inject-* flags
// drive the deterministic fault-injection harness for drills:
//
//	dnntrain -zoo lenet -iters 200 -snapshot-every 50 -snapshot-dir ckpt \
//	         -guard-policy rollback
//	dnntrain -zoo lenet -resume ckpt -iters 100
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"coarsegrain/internal/core"
	"coarsegrain/internal/faultinject"
	"coarsegrain/internal/guard"
	"coarsegrain/internal/net"
	"coarsegrain/internal/par"
	"coarsegrain/internal/prototxt"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// options collects everything main parses from flags, so tests can call
// run directly.
type options struct {
	Model, SolverPath, Zoo, Engine          string
	Workers, Iters, Display, Batch, Samples int
	Seed                                    uint64
	DataDir, Dataset                        string
	Snapshot, Resume, TracePath             string

	SnapEvery, SnapKeep int
	SnapDir             string

	GuardPolicy                  string
	GuardMaxNorm, GuardLRBackoff float64
	GuardEvery                   int

	InjectSeed          uint64
	InjectGradNaN       int
	InjectCorruptResume bool
}

func main() {
	var o options
	flag.StringVar(&o.Model, "model", "", "network prototxt file")
	flag.StringVar(&o.SolverPath, "solver", "", "solver prototxt file")
	flag.StringVar(&o.Zoo, "zoo", "", "built-in network instead of -model: lenet | cifar10-full")
	flag.StringVar(&o.Engine, "engine", "coarse", "execution engine: sequential | coarse | fine | tuned")
	flag.IntVar(&o.Workers, "workers", 4, "worker count for parallel engines")
	flag.IntVar(&o.Iters, "iters", 200, "training iterations")
	flag.IntVar(&o.Display, "display", 20, "print loss every N iterations")
	flag.IntVar(&o.Batch, "batch", 0, "override batch size")
	flag.IntVar(&o.Samples, "samples", 2048, "synthetic dataset size")
	flag.Uint64Var(&o.Seed, "seed", 1, "seed")
	flag.StringVar(&o.DataDir, "data", "", "directory with real dataset files")
	flag.StringVar(&o.Dataset, "dataset", "", "force dataset: mnist | cifar (default inferred)")
	flag.StringVar(&o.Snapshot, "snapshot", "", "write a solver snapshot here when training ends")
	flag.StringVar(&o.Resume, "resume", "", "resume from a snapshot file, or from the newest valid checkpoint in a directory")
	flag.StringVar(&o.TracePath, "trace", "", "write a Chrome trace-event JSON (chrome://tracing / Perfetto) of the run here")

	flag.IntVar(&o.SnapEvery, "snapshot-every", 0, "write a checkpoint to -snapshot-dir every N iterations (0 = off)")
	flag.StringVar(&o.SnapDir, "snapshot-dir", "", "checkpoint directory for -snapshot-every and guard rollbacks")
	flag.IntVar(&o.SnapKeep, "snapshot-keep", 3, "retain only the newest K checkpoints (0 = keep all)")

	flag.StringVar(&o.GuardPolicy, "guard-policy", "off", "training health monitor: off | halt | skip | rollback")
	flag.Float64Var(&o.GuardMaxNorm, "guard-max-norm", 0, "fault when the gradient L2 norm exceeds this (0 = NaN/Inf checks only)")
	flag.Float64Var(&o.GuardLRBackoff, "guard-lr-backoff", 0.5, "learning-rate multiplier applied on each guard rollback")
	flag.IntVar(&o.GuardEvery, "guard-every", 1, "run the guard scan every N iterations")

	flag.Uint64Var(&o.InjectSeed, "inject-seed", 1, "fault-injection seed (deterministic drills)")
	flag.IntVar(&o.InjectGradNaN, "inject-grad-nan", -1, "fault drill: poison one gradient value with NaN at this iteration")
	flag.BoolVar(&o.InjectCorruptResume, "inject-corrupt-resume", false, "fault drill: corrupt the newest checkpoint before resuming")
	flag.Parse()

	// SIGINT requests a graceful stop: finish the current chunk, write a
	// checkpoint, exit cleanly.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	if err := run(o, os.Stdout, sigc); err != nil {
		fmt.Fprintln(os.Stderr, "dnntrain:", err)
		os.Exit(1)
	}
}

// run trains as o describes and writes the log to w. A value on
// interrupt stops training after the current chunk and checkpoints; a
// nil channel never interrupts.
func run(o options, w io.Writer, interrupt <-chan os.Signal) error {
	m, err := zoo.Resolve(o.Zoo, o.Model, o.Dataset)
	if err != nil {
		return err
	}
	src, real := m.Source(o.DataDir, o.Samples, o.Seed)
	if real {
		fmt.Fprintf(w, "dataset: real %s (%d samples)\n", m.Dataset, src.Len())
	} else {
		fmt.Fprintf(w, "dataset: synthetic %s (%d samples)\n", m.Dataset, src.Len())
	}
	specs, err := m.Build(src, o.Batch, o.Seed, true)
	if err != nil {
		return err
	}

	eng, err := core.ByName(o.Engine, o.Workers)
	if err != nil {
		return err
	}
	defer eng.Close()

	n, err := net.New(specs, eng)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "network (%d layers, engine %s/%d workers):\n%s",
		len(specs), eng.Name(), eng.Workers(), n)

	cfg := m.Solver
	if o.SolverPath != "" {
		raw, err := os.ReadFile(o.SolverPath)
		if err != nil {
			return err
		}
		if cfg, err = prototxt.ParseSolver(string(raw)); err != nil {
			return err
		}
	}
	s, err := solver.New(cfg, n)
	if err != nil {
		return err
	}
	inj := faultinject.New(o.InjectSeed)
	if o.Resume != "" {
		st, err := os.Stat(o.Resume)
		if err != nil {
			return err
		}
		if st.IsDir() {
			if o.InjectCorruptResume {
				cks, err := snapshot.Checkpoints(o.Resume)
				if err != nil || len(cks) == 0 {
					return fmt.Errorf("inject-corrupt-resume: no checkpoints in %s", o.Resume)
				}
				newest := cks[len(cks)-1]
				off, err := inj.CorruptFile(newest)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "fault injected: flipped byte %d of %s\n", off, newest)
			}
			path, skipped, err := snapshot.LoadLatestValid(o.Resume, s)
			for _, sk := range skipped {
				fmt.Fprintf(w, "checkpoint %s invalid, falling back\n", sk)
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "resumed from %s at iteration %d\n", path, s.Iter())
		} else {
			if err := snapshot.LoadSolverFile(o.Resume, s); err != nil {
				return err
			}
			fmt.Fprintf(w, "resumed from %s at iteration %d\n", o.Resume, s.Iter())
		}
	}

	var tr *trace.Tracer
	if o.TracePath != "" {
		tr = trace.New(eng.Workers())
		s.SetTracer(tr)
	}

	// Health monitor + optional fault drill, composed into one pre-update
	// hook (poison first, so the guard sees the damaged gradient).
	var mon *guard.Monitor
	var hook solver.PreUpdateHook
	if o.GuardPolicy != "off" {
		pol, err := guard.ParsePolicy(o.GuardPolicy)
		if err != nil {
			return err
		}
		mon, err = guard.New(guard.Config{
			Policy:      pol,
			MaxGradNorm: o.GuardMaxNorm,
			LRBackoff:   float32(o.GuardLRBackoff),
			CheckEvery:  o.GuardEvery,
		}, s, par.NewPool(o.Workers))
		if err != nil {
			return err
		}
		defer mon.Close()
		mon.SetTracer(tr)
		if o.SnapDir != "" {
			dir := o.SnapDir
			mon.SetRestore(func(sv *solver.Solver) (string, error) {
				path, _, err := snapshot.LoadLatestValid(dir, sv)
				return path, err
			})
		}
		hook = mon.Check
	}
	if o.InjectGradNaN >= 0 {
		poison, err := inj.GradPoisoner(n, o.InjectGradNaN)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "fault armed: gradient NaN at iteration %d\n", o.InjectGradNaN)
		hook = poison.Hook(hook)
	}
	if hook != nil {
		s.SetPreUpdate(hook)
	}

	checkpoint := func() error {
		if o.SnapDir == "" {
			return nil
		}
		path, err := snapshot.SaveCheckpoint(o.SnapDir, s, o.SnapKeep)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint written to %s (iteration %d)\n", path, s.Iter())
		return nil
	}

	fmt.Fprintf(w, "training %d iterations (%s, base_lr %g)\n", o.Iters, cfg.Type, cfg.BaseLR)
	interrupted := false
	remaining := o.Iters
	for remaining > 0 && !interrupted {
		step := o.Display
		if step > remaining {
			step = remaining
		}
		if o.SnapEvery > 0 {
			if toNext := o.SnapEvery - s.Iter()%o.SnapEvery; toNext < step {
				step = toNext
			}
		}
		losses := s.Step(step)
		remaining -= step
		line := fmt.Sprintf("iter %5d  loss %.6f  lr %.6f", s.Iter(), losses[len(losses)-1], s.LearningRate())
		if acc, err := n.Output("accuracy"); err == nil {
			line += fmt.Sprintf("  batch-accuracy %.3f", acc)
		}
		fmt.Fprintln(w, line)
		if mon != nil && mon.Err() != nil {
			break
		}
		if o.SnapEvery > 0 && s.Iter()%o.SnapEvery == 0 {
			if err := checkpoint(); err != nil {
				return err
			}
		}
		select {
		case <-interrupt:
			fmt.Fprintln(w, "interrupt: checkpointing before exit")
			interrupted = true
		default:
		}
	}
	if interrupted {
		if err := checkpoint(); err != nil {
			return err
		}
	}
	if mon != nil {
		st := mon.Stats()
		fmt.Fprintf(w, "guard: %d checks, %d faults (%d skipped, %d rollbacks, %d halts)\n",
			st.Checks, st.Faults, st.Skips, st.Rollbacks, st.Halts)
	}
	if o.Snapshot != "" {
		if err := snapshot.SaveSolverFile(o.Snapshot, s); err != nil {
			return err
		}
		fmt.Fprintf(w, "snapshot written to %s (iteration %d)\n", o.Snapshot, s.Iter())
	}
	if tr.Enabled() {
		if err := tr.WriteChromeTraceFile(o.TracePath); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %d spans (%d dropped) written to %s — open in chrome://tracing or https://ui.perfetto.dev\n",
			tr.Len(), tr.Dropped(), o.TracePath)
	}
	if mon != nil {
		return mon.Err()
	}
	return nil
}
