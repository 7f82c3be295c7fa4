package layers

import (
	"math"
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/rng"
)

// gradCheck verifies a layer's BackwardRange against centered finite
// differences of its forward pass.
//
// The objective is J = Σ_t <top_t, w_t> for fixed random weights w_t, so
// the analytic gradient is obtained by seeding every top diff with w and
// running the layer's backward. checkBottoms selects which bottom blobs'
// gradients to verify; when params is true the parameter gradients are
// verified too.
func gradCheck(t *testing.T, l Layer, bottoms []*blob.Blob, checkBottoms []bool, params bool, eps, tol float64) {
	t.Helper()
	tops := make([]*blob.Blob, topArity(l))
	for i := range tops {
		tops[i] = blob.New()
	}
	if err := l.SetUp(bottoms, tops); err != nil {
		t.Fatalf("SetUp: %v", err)
	}
	r := rng.New(99, 42)
	weights := make([][]float32, len(tops))

	forward := func() {
		if p, ok := l.(ForwardPreparer); ok {
			p.ForwardPrepare(bottoms, tops)
		}
		if n := l.ForwardExtent(); n > 0 {
			l.ForwardRange(0, n, bottoms, tops)
		}
		if f, ok := l.(ForwardFinisher); ok {
			f.ForwardFinish(bottoms, tops)
		}
	}
	objective := func() float64 {
		forward()
		var j float64
		for ti, top := range tops {
			for i, v := range top.Data() {
				j += float64(v) * float64(weights[ti][i])
			}
		}
		return j
	}

	// First forward fixes top shapes; then draw objective weights.
	forward()
	for ti, top := range tops {
		w := make([]float32, top.Count())
		for i := range w {
			w[i] = r.Range(0.5, 1.5) // positive, away from 0
		}
		weights[ti] = w
	}

	// Analytic gradients.
	for _, b := range bottoms {
		b.ZeroDiff()
	}
	for _, p := range l.Params() {
		p.ZeroDiff()
	}
	forward()
	for ti, top := range tops {
		copy(top.Diff(), weights[ti])
	}
	if n := l.BackwardExtent(); n > 0 {
		if p, ok := l.(BackwardPreparer); ok {
			p.BackwardPrepare(bottoms, tops)
		}
		l.BackwardRange(0, n, bottoms, tops, l.Params())
		if f, ok := l.(BackwardFinisher); ok {
			f.BackwardFinish(bottoms, tops)
		}
	}

	check := func(name string, target *blob.Blob, i int, analytic float64) {
		t.Helper()
		d := target.Data()
		orig := d[i]
		d[i] = orig + float32(eps)
		jPlus := objective()
		d[i] = orig - float32(eps)
		jMinus := objective()
		d[i] = orig
		numeric := (jPlus - jMinus) / (2 * eps)
		scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
		if math.Abs(analytic-numeric)/scale > tol {
			t.Errorf("%s[%d]: analytic %g vs numeric %g", name, i, analytic, numeric)
		}
	}

	for bi, b := range bottoms {
		if bi >= len(checkBottoms) || !checkBottoms[bi] {
			continue
		}
		grad := append([]float32(nil), b.Diff()...)
		for i := range b.Data() {
			check("bottom"+string(rune('0'+bi)), b, i, float64(grad[i]))
		}
	}
	if params {
		for pi, p := range l.Params() {
			grad := append([]float32(nil), p.Diff()...)
			for i := range p.Data() {
				check(p.Name()+string(rune('0'+pi)), p, i, float64(grad[i]))
			}
		}
	}
}

// topArity returns how many top blobs a layer type produces.
func topArity(l Layer) int {
	switch l.Type() {
	case "Data":
		return 2
	default:
		return 1
	}
}

// randomBlob creates a blob with uniform values in [lo, hi).
func randomBlob(r *rng.RNG, lo, hi float32, shape ...int) *blob.Blob {
	b := blob.New(shape...)
	d := b.Data()
	for i := range d {
		d[i] = r.Range(lo, hi)
	}
	return b
}

// The convolution gradient checks run both implementations: the direct
// loop nest (the oracle) and the default lowered path.
func TestGradConvolution(t *testing.T) {
	for _, direct := range []bool{true, false} {
		r := rng.New(1, 10)
		l, err := NewConvolution("c", ConvConfig{NumOutput: 3, Kernel: 3, Stride: 1, Pad: 1, Direct: direct,
			WeightFiller: GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
		if err != nil {
			t.Fatal(err)
		}
		bottom := randomBlob(r, -1, 1, 2, 2, 5, 5)
		gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, true, 1e-2, 2e-2)
	}
}

func TestGradConvolutionStridePad(t *testing.T) {
	for _, direct := range []bool{true, false} {
		r := rng.New(2, 10)
		l, err := NewConvolution("c", ConvConfig{NumOutput: 2, KernelH: 3, KernelW: 2,
			StrideH: 2, StrideW: 1, PadH: 1, PadW: 0, Direct: direct,
			WeightFiller: GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
		if err != nil {
			t.Fatal(err)
		}
		bottom := randomBlob(r, -1, 1, 2, 3, 6, 5)
		gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, true, 1e-2, 2e-2)
	}
}

func TestGradConvolutionNoBias(t *testing.T) {
	for _, direct := range []bool{true, false} {
		r := rng.New(3, 10)
		l, err := NewConvolution("c", ConvConfig{NumOutput: 2, Kernel: 3, NoBias: true, Direct: direct,
			WeightFiller: GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
		if err != nil {
			t.Fatal(err)
		}
		bottom := randomBlob(r, -1, 1, 2, 2, 4, 4)
		gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, true, 1e-2, 2e-2)
	}
}

func TestGradPoolingMax(t *testing.T) {
	r := rng.New(4, 10)
	l, err := NewPooling("p", PoolConfig{Method: MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Well-separated values avoid argmax flips under perturbation.
	bottom := blob.New(2, 2, 4, 4)
	for i := range bottom.Data() {
		bottom.Data()[i] = float32(i%17) + 0.1*r.Float32()
	}
	gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, false, 1e-3, 2e-2)
}

// TestGradPoolingAve covers windows inside the input (5x5) and ceil-mode
// windows that overhang it (6x6, and 6x6 with pad 1), whose Caffe
// divisor is the window clipped to the padded input.
func TestGradPoolingAve(t *testing.T) {
	r := rng.New(5, 10)
	for _, tc := range []struct{ size, pad int }{{5, 0}, {6, 0}, {6, 1}} {
		l, err := NewPooling("p", PoolConfig{Method: AvePool, Kernel: 3, Stride: 2, Pad: tc.pad})
		if err != nil {
			t.Fatal(err)
		}
		bottom := randomBlob(r, -1, 1, 2, 2, tc.size, tc.size)
		gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, false, 1e-2, 2e-2)
	}
}

func TestGradInnerProduct(t *testing.T) {
	r := rng.New(6, 10)
	l, err := NewInnerProduct("ip", IPConfig{NumOutput: 4,
		WeightFiller: GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 3, 5)
	gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, true, 1e-2, 2e-2)
}

func TestGradInnerProduct4D(t *testing.T) {
	r := rng.New(7, 10)
	l, err := NewInnerProduct("ip", IPConfig{NumOutput: 3, NoBias: true,
		WeightFiller: GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 2, 2, 3, 3)
	gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, true, 1e-2, 2e-2)
}

func TestGradReLU(t *testing.T) {
	r := rng.New(8, 10)
	// Keep values away from the kink at 0.
	bottom := blob.New(2, 3, 4, 4)
	for i := range bottom.Data() {
		v := r.Range(0.2, 1)
		if r.Bernoulli(0.5) {
			v = -v
		}
		bottom.Data()[i] = v
	}
	gradCheck(t, NewReLU("r", 0), []*blob.Blob{bottom}, []bool{true}, false, 1e-3, 2e-2)
}

func TestGradLeakyReLU(t *testing.T) {
	r := rng.New(9, 10)
	bottom := blob.New(2, 6)
	for i := range bottom.Data() {
		v := r.Range(0.2, 1)
		if r.Bernoulli(0.5) {
			v = -v
		}
		bottom.Data()[i] = v
	}
	gradCheck(t, NewReLU("r", 0.1), []*blob.Blob{bottom}, []bool{true}, false, 1e-3, 2e-2)
}

func TestGradSigmoid(t *testing.T) {
	r := rng.New(10, 10)
	bottom := randomBlob(r, -2, 2, 3, 4)
	gradCheck(t, NewSigmoid("s"), []*blob.Blob{bottom}, []bool{true}, false, 1e-2, 2e-2)
}

func TestGradTanH(t *testing.T) {
	r := rng.New(11, 10)
	bottom := randomBlob(r, -2, 2, 3, 4)
	gradCheck(t, NewTanH("t"), []*blob.Blob{bottom}, []bool{true}, false, 1e-2, 2e-2)
}

func TestGradLRN(t *testing.T) {
	r := rng.New(12, 10)
	l, err := NewLRN("n", LRNConfig{LocalSize: 3, Alpha: 0.5, Beta: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 2, 5, 3, 3)
	gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, false, 1e-3, 2e-2)
}

func TestGradSoftmax(t *testing.T) {
	r := rng.New(13, 10)
	bottom := randomBlob(r, -2, 2, 3, 5)
	gradCheck(t, NewSoftmax("sm"), []*blob.Blob{bottom}, []bool{true}, false, 1e-3, 2e-2)
}

func TestGradSoftmaxWithLoss(t *testing.T) {
	r := rng.New(14, 10)
	scores := randomBlob(r, -2, 2, 4, 5)
	labels := blob.New(4)
	for s := 0; s < 4; s++ {
		labels.Data()[s] = float32(r.Intn(5))
	}
	gradCheck(t, NewSoftmaxWithLoss("loss"), []*blob.Blob{scores, labels},
		[]bool{true, false}, false, 1e-3, 2e-2)
}

func TestGradEuclideanLoss(t *testing.T) {
	r := rng.New(15, 10)
	a := randomBlob(r, -1, 1, 3, 4)
	b := randomBlob(r, -1, 1, 3, 4)
	gradCheck(t, NewEuclideanLoss("el"), []*blob.Blob{a, b},
		[]bool{true, true}, false, 1e-3, 2e-2)
}

func TestGradDropoutFrozenMask(t *testing.T) {
	// Dropout gradients are exact for a fixed mask: prepare once, then
	// verify that backward applies the same mask as forward.
	r := rng.New(16, 10)
	l, err := NewDropout("d", 0.4, r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 3, 6)
	tops := []*blob.Blob{blob.New()}
	if err := l.SetUp([]*blob.Blob{bottom}, tops); err != nil {
		t.Fatal(err)
	}
	l.ForwardPrepare([]*blob.Blob{bottom}, tops)
	l.ForwardRange(0, l.ForwardExtent(), []*blob.Blob{bottom}, tops)
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = 1
	}
	l.BackwardRange(0, l.BackwardExtent(), []*blob.Blob{bottom}, tops, nil)
	for i := range bottom.Data() {
		want := float32(0)
		if tops[0].Data()[i] != 0 {
			want = tops[0].Data()[i] / bottom.Data()[i] // the mask scale
		}
		got := bottom.Diff()[i]
		if math.Abs(float64(got-want)) > 1e-4 {
			t.Fatalf("dropout grad[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestGradDeconvolution(t *testing.T) {
	r := rng.New(81, 10)
	l, err := NewDeconvolution("dc", ConvConfig{NumOutput: 3, Kernel: 3, Stride: 2, Pad: 1,
		WeightFiller: GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 2, 2, 4, 4)
	gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, true, 1e-2, 2e-2)
}

func TestGradDeconvolutionNoBias(t *testing.T) {
	r := rng.New(82, 10)
	l, err := NewDeconvolution("dc", ConvConfig{NumOutput: 2, Kernel: 2, NoBias: true,
		WeightFiller: GaussianFiller{Std: 0.3}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 2, 3, 3, 3)
	gradCheck(t, l, []*blob.Blob{bottom}, []bool{true}, true, 1e-2, 2e-2)
}
