package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"coarsegrain/internal/metrics"
	"coarsegrain/internal/net"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

// saveAndEvaluate builds the net o names with weight seed 7 over the
// test stream run will read, saves it with snapshot.SaveNetFile, and
// evaluates that in-memory net directly: the report run must print
// after loading the snapshot into its own seed-o.Seed net.
func saveAndEvaluate(t *testing.T, o *options) string {
	t.Helper()
	m, err := zoo.Resolve(o.Zoo, o.Model, "")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := m.Source("", o.Samples, o.Seed)
	specs, err := m.Build(src, o.Batch, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	o.Snapshot = filepath.Join(t.TempDir(), "model.cgdnn")
	if err := snapshot.SaveNetFile(o.Snapshot, n); err != nil {
		t.Fatal(err)
	}

	var want strings.Builder
	fmt.Fprintf(&want, "loaded %s into a %d-layer net; evaluating %d batches\n", o.Snapshot, len(specs), o.Batches)
	outputs := []string{"loss"}
	if _, err := n.Output("accuracy"); err == nil {
		outputs = append(outputs, "accuracy")
	}
	res, err := solver.Evaluate(n, outputs, o.Batches)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&want, "mean loss: %.6f\n", res["loss"])
	if acc, ok := res["accuracy"]; ok {
		fmt.Fprintf(&want, "mean accuracy: %.4f\n", acc)
	}
	if m.ScoreBlob != "" {
		cm, err := metrics.Collect(n, m.ScoreBlob, "label", o.Batches)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "\nconfusion matrix (%s vs label):\n%s", m.ScoreBlob, cm)
	}
	return want.String()
}

// TestRunZooSnapshot evaluates a saved zoo LeNet: mean loss, mean
// accuracy and the ip2 confusion matrix must match the saved net's own.
func TestRunZooSnapshot(t *testing.T) {
	o := options{Zoo: "lenet", Batches: 2, Batch: 8, Samples: 32, Seed: 2, Workers: 2}
	want := saveAndEvaluate(t, &o)
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Fatalf("report differs from the saved net's evaluation:\ngot:\n%s\nwant:\n%s", got, want)
	}
	for _, line := range []string{"mean loss: ", "mean accuracy: ", "confusion matrix (ip2 vs label):"} {
		if !strings.Contains(want, line) {
			t.Fatalf("report lacks %q:\n%s", line, want)
		}
	}
}

// TestRunPrototxtSnapshot evaluates a -model net: the prototxt declares
// no accuracy layer and names no score blob, so only the loss prints.
func TestRunPrototxtSnapshot(t *testing.T) {
	o := options{Model: filepath.Join("..", "..", "configs", "lenet.prototxt"), Batches: 2, Batch: 8, Samples: 32, Seed: 2, Workers: 1}
	want := saveAndEvaluate(t, &o)
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if got != want {
		t.Fatalf("report differs from the saved net's evaluation:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(got, "mean loss: ") || strings.Contains(got, "accuracy") || strings.Contains(got, "confusion") {
		t.Fatalf("prototxt report should hold the loss only:\n%s", got)
	}
}

func TestRunNeedsSnapshot(t *testing.T) {
	var out strings.Builder
	err := run(options{Zoo: "lenet", Batches: 1}, &out)
	if err == nil || !strings.Contains(err.Error(), "need -snapshot") {
		t.Fatalf("got %v, want the need -snapshot error", err)
	}
}
