package zoo

import (
	"testing"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
)

func TestLeNetArchitecture(t *testing.T) {
	src := data.NewSyntheticMNIST(256, 1)
	specs, err := LeNet(src, Options{BatchSize: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 9 {
		t.Fatalf("LeNet has %d layers, want 9 (paper Figure 3)", len(specs))
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shapes from the LeNet definition: conv1 20x24x24, pool1 20x12x12,
	// conv2 50x8x8, pool2 50x4x4, ip1 500, ip2 10.
	cases := map[string][]int{
		"data":  {64, 1, 28, 28},
		"conv1": {64, 20, 24, 24},
		"pool1": {64, 20, 12, 12},
		"conv2": {64, 50, 8, 8},
		"pool2": {64, 50, 4, 4},
		"ip1":   {64, 500},
		"ip2":   {64, 10},
	}
	for name, want := range cases {
		got := n.Blob(name).Shape()
		if len(got) != len(want) {
			t.Fatalf("%s shape %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s shape %v, want %v", name, got, want)
			}
		}
	}
	loss := n.Forward()
	if loss < 1 || loss > 5 {
		t.Fatalf("untrained LeNet loss %v", loss)
	}
}

func TestCIFARFullArchitecture(t *testing.T) {
	src := data.NewSyntheticCIFAR(200, 2)
	specs, err := CIFARFull(src, Options{BatchSize: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 14 {
		t.Fatalf("CIFAR-full has %d layers, want 14 (paper Figure 3)", len(specs))
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]int{
		"data":  {100, 3, 32, 32},
		"conv1": {100, 32, 32, 32}, // pad 2 keeps 32x32
		"pool1": {100, 32, 16, 16},
		"norm1": {100, 32, 16, 16},
		"conv2": {100, 32, 16, 16},
		"pool2": {100, 32, 8, 8},
		"conv3": {100, 64, 8, 8},
		"pool3": {100, 64, 4, 4},
		"ip1":   {100, 10},
	}
	for name, want := range cases {
		got := n.Blob(name).Shape()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s shape %v, want %v", name, got, want)
			}
		}
	}
	if loss := n.Forward(); loss < 1 || loss > 5 {
		t.Fatalf("untrained CIFAR loss %v", loss)
	}
}

func TestLeNetTrainsUnderCoarseEngine(t *testing.T) {
	src := data.NewSyntheticMNIST(256, 3)
	specs, err := LeNet(src, Options{BatchSize: 16, Seed: 3, Accuracy: true})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewCoarse(4)
	defer e.Close()
	n, err := net.New(specs, e)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(LeNetSolver(), n)
	if err != nil {
		t.Fatal(err)
	}
	losses := s.Step(40)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("LeNet loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestCIFARFullRunsOneIteration(t *testing.T) {
	src := data.NewSyntheticCIFAR(64, 4)
	specs, err := CIFARFull(src, Options{BatchSize: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(CIFARFullSolver(), n)
	if err != nil {
		t.Fatal(err)
	}
	losses := s.Step(2)
	for _, l := range losses {
		if l <= 0 || l != l {
			t.Fatalf("bad loss %v", l)
		}
	}
}

func TestBuildByName(t *testing.T) {
	src := data.NewSyntheticMNIST(64, 5)
	for _, name := range []string{"lenet", "mnist"} {
		if _, err := Build(name, src, Options{BatchSize: 4}); err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
	}
	csrc := data.NewSyntheticCIFAR(64, 5)
	for _, name := range []string{"cifar", "cifar10", "cifar10-full"} {
		if _, err := Build(name, csrc, Options{BatchSize: 4}); err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
	}
	if _, err := Build("alexnet", src, Options{}); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestSolverConfigsValid(t *testing.T) {
	src := data.NewSyntheticMNIST(64, 6)
	specs, _ := LeNet(src, Options{BatchSize: 4, Seed: 6})
	n, _ := net.New(specs, nil)
	if _, err := solver.New(LeNetSolver(), n); err != nil {
		t.Fatalf("LeNetSolver config invalid: %v", err)
	}
	if _, err := solver.New(CIFARFullSolver(), n); err != nil {
		t.Fatalf("CIFARFullSolver config invalid: %v", err)
	}
}

func TestSeedReproducibility(t *testing.T) {
	src1 := data.NewSyntheticMNIST(64, 7)
	src2 := data.NewSyntheticMNIST(64, 7)
	s1, _ := LeNet(src1, Options{BatchSize: 4, Seed: 9})
	s2, _ := LeNet(src2, Options{BatchSize: 4, Seed: 9})
	n1, _ := net.New(s1, nil)
	n2, _ := net.New(s2, nil)
	for i := range n1.Params() {
		a, b := n1.Params()[i].Data(), n2.Params()[i].Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
	if n1.Forward() != n2.Forward() {
		t.Fatal("same seed produced different loss")
	}
}

// The default lowered convolution must compute the same function as the
// DirectConv variant (same weights, same data).
func TestLoweredConvVariantMatchesDirect(t *testing.T) {
	mk := func(direct bool) *net.Net {
		src := data.NewSyntheticMNIST(64, 8)
		specs, err := LeNet(src, Options{BatchSize: 8, Seed: 8, DirectConv: direct})
		if err != nil {
			t.Fatal(err)
		}
		n, err := net.New(specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk(true)
	b := mk(false)
	la, lb := a.Forward(), b.Forward()
	rel := (la - lb) / la
	if rel > 1e-5 || rel < -1e-5 {
		t.Fatalf("lowered LeNet loss %v vs direct %v", lb, la)
	}
}

// TestLeNetLoweredDeterminismSweep pins the determinism contract on the
// default (lowered im2col+GEMM) training path at every worker count
// P = 1..8: the coarse forward pass is bitwise equal to sequential, a
// coarse(P) training run repeats bitwise, and coarse(1) matches
// sequential bitwise over 20 SGD steps.
func TestLeNetLoweredDeterminismSweep(t *testing.T) {
	const batch = 20 // uneven bands at P = 3, 6, 7, 8
	build := func(eng core.Engine) *net.Net {
		t.Helper()
		specs, err := LeNet(data.NewSyntheticMNIST(96, 11), Options{BatchSize: batch, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		n, err := net.New(specs, eng)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	train := func(eng core.Engine, iters int) ([]float64, *net.Net) {
		t.Helper()
		n := build(eng)
		s, err := solver.New(LeNetSolver(), n)
		if err != nil {
			t.Fatal(err)
		}
		return s.Step(iters), n
	}
	sameBits := func(label string, got, want *net.Net) {
		t.Helper()
		for i, p := range want.Params() {
			g := got.Params()[i].Data()
			for j, v := range p.Data() {
				if g[j] != v {
					t.Fatalf("%s: param %s differs at %d: %v vs %v", label, p.Name(), j, g[j], v)
				}
			}
		}
	}
	sameTrace := func(label string, got, want []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: loss differs at iter %d: %v vs %v", label, i, got[i], want[i])
			}
		}
	}

	seq := build(core.NewSequential())
	seqLoss := seq.Forward()
	for p := 1; p <= 8; p++ {
		e := core.NewCoarse(p)
		n := build(e)
		loss := n.Forward()
		for _, name := range []string{"conv1", "pool1", "conv2", "pool2", "ip1", "ip2"} {
			want, got := seq.Blob(name).Data(), n.Blob(name).Data()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("P=%d: coarse forward blob %s differs from sequential at %d: %v vs %v", p, name, i, got[i], want[i])
				}
			}
		}
		if loss != seqLoss {
			t.Fatalf("P=%d: coarse forward loss %v, sequential %v", p, loss, seqLoss)
		}
		e.Close()

		e1, e2 := core.NewCoarse(p), core.NewCoarse(p)
		a, na := train(e1, 3)
		b, nb := train(e2, 3)
		e1.Close()
		e2.Close()
		sameTrace("coarse rerun", b, a)
		sameBits("coarse rerun", nb, na)
	}

	ref, nref := train(core.NewSequential(), 20)
	e := core.NewCoarse(1)
	defer e.Close()
	got, ngot := train(e, 20)
	sameTrace("coarse(1) vs sequential", got, ref)
	sameBits("coarse(1) vs sequential", ngot, nref)
}
