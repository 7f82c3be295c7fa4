// Command dnneval evaluates a trained model snapshot on a test stream:
//
//	dnntrain -zoo lenet -iters 500 -snapshot /tmp/lenet.cgdnn
//	dnneval  -zoo lenet -snapshot /tmp/lenet.cgdnn -batches 20
//
// It loads the parameters saved by dnntrain (solver snapshots are
// accepted too — the extra state is ignored), runs the requested number
// of forward-only batches in test mode, and reports mean loss and
// accuracy.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"coarsegrain/internal/core"
	"coarsegrain/internal/metrics"
	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

// options collects everything main parses from flags, so tests can call
// run directly.
type options struct {
	Model, Zoo, Snapshot, DataDir, Scores string
	Batches, Batch, Samples, Workers      int
	Seed                                  uint64
}

func main() {
	var o options
	flag.StringVar(&o.Model, "model", "", "network prototxt file")
	flag.StringVar(&o.Zoo, "zoo", "", "built-in network: lenet | cifar10-full")
	flag.StringVar(&o.Snapshot, "snapshot", "", "model or solver snapshot to evaluate (required)")
	flag.IntVar(&o.Batches, "batches", 16, "test batches to average over")
	flag.IntVar(&o.Batch, "batch", 0, "override batch size")
	flag.IntVar(&o.Samples, "samples", 2048, "synthetic dataset size")
	flag.Uint64Var(&o.Seed, "seed", 2, "seed for the synthetic test stream")
	flag.IntVar(&o.Workers, "workers", 1, "coarse workers for the forward passes")
	flag.StringVar(&o.DataDir, "data", "", "directory with real dataset files")
	flag.StringVar(&o.Scores, "scores", "", "score blob for the confusion matrix (default: ip2 for lenet, ip1 for cifar)")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnneval:", err)
		os.Exit(1)
	}
}

// run evaluates the snapshot and writes the report to w.
func run(o options, w io.Writer) error {
	if o.Snapshot == "" {
		return fmt.Errorf("need -snapshot")
	}
	m, err := zoo.Resolve(o.Zoo, o.Model, "")
	if err != nil {
		return err
	}
	src, _ := m.Source(o.DataDir, o.Samples, o.Seed)
	specs, err := m.Build(src, o.Batch, o.Seed, true)
	if err != nil {
		return err
	}

	eng := core.NewCoarse(o.Workers)
	defer eng.Close()
	n, err := net.New(specs, eng)
	if err != nil {
		return err
	}
	if err := snapshot.LoadNetFile(o.Snapshot, n); err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded %s into a %d-layer net; evaluating %d batches\n",
		o.Snapshot, len(specs), o.Batches)

	outputs := []string{"loss"}
	if _, err := n.Output("accuracy"); err == nil {
		outputs = append(outputs, "accuracy")
	}
	res, err := solver.Evaluate(n, outputs, o.Batches)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mean loss: %.6f\n", res["loss"])
	if acc, ok := res["accuracy"]; ok {
		fmt.Fprintf(w, "mean accuracy: %.4f\n", acc)
	}

	// Confusion matrix over the score blob, when one can be named.
	sb := o.Scores
	if sb == "" {
		sb = m.ScoreBlob
	}
	if sb != "" {
		cm, err := metrics.Collect(n, sb, "label", o.Batches)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nconfusion matrix (%s vs label):\n%s", sb, cm)
	}
	return nil
}
