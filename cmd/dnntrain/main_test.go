package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyRun is a two-iteration coarse LeNet run with the flag defaults for
// the guard and fault-injection knobs.
func tinyRun() options {
	return options{
		Zoo: "lenet", Engine: "coarse", Workers: 2, Iters: 2, Display: 1,
		Batch: 8, Samples: 16, Seed: 1, SnapKeep: 3,
		GuardPolicy: "off", GuardLRBackoff: 0.5, GuardEvery: 1,
		InjectSeed: 1, InjectGradNaN: -1,
	}
}

func TestRunNeedsModelOrZoo(t *testing.T) {
	o := tinyRun()
	o.Zoo = ""
	err := run(o, &strings.Builder{}, nil)
	if err == nil || !strings.Contains(err.Error(), "need -model or -zoo") {
		t.Fatalf("got %v, want the need -model or -zoo error", err)
	}
}

func TestRunUnknownEngine(t *testing.T) {
	o := tinyRun()
	o.Engine = "warp"
	err := run(o, &strings.Builder{}, nil)
	if err == nil || !strings.Contains(err.Error(), `unknown engine "warp"`) {
		t.Fatalf("got %v, want the unknown engine error", err)
	}
}

// TestRunSnapshotDeterministic trains twice with the same flags; the two
// snapshots must be byte-identical.
func TestRunSnapshotDeterministic(t *testing.T) {
	dir := t.TempDir()
	var snaps [2][]byte
	for i := range snaps {
		o := tinyRun()
		o.Snapshot = filepath.Join(dir, fmt.Sprintf("run%d.cgdnn", i))
		var out strings.Builder
		if err := run(o, &out, nil); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"dataset: synthetic mnist (16 samples)", "iter     2  loss ", "snapshot written to"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("run %d output lacks %q:\n%s", i, want, out.String())
			}
		}
		var err error
		if snaps[i], err = os.ReadFile(o.Snapshot); err != nil {
			t.Fatal(err)
		}
	}
	if len(snaps[0]) == 0 || !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("snapshots differ across identical runs (%d vs %d bytes)", len(snaps[0]), len(snaps[1]))
	}
}
