//go:build !race

// The race detector's instrumentation allocates, so the zero-alloc
// checks only run in normal test passes.

package layers

import (
	"testing"

	"coarsegrain/internal/blob"
	"coarsegrain/internal/par"
	"coarsegrain/internal/rng"
)

// TestLoweredConvBandAllocationFree runs the lowered convolution the way
// a 2-worker coarse engine does — each worker takes its band of samples
// through ForwardRange and then BackwardRange into its own privatized
// gradient blobs — and requires zero allocations per step after
// warm-up: the packing scratch (whose B panel grows once to KC x NC) and
// the dcol buffers come from pools, and no column matrix is built. The
// bands run on the test goroutine so the count excludes the worker
// pool's own fork/join.
func TestLoweredConvBandAllocationFree(t *testing.T) {
	r := rng.New(31, 31)
	l, err := NewConvolution("conv2", ConvConfig{NumOutput: 50, Kernel: 5,
		WeightFiller: GaussianFiller{Std: 0.1}, RNG: r.Split(0)})
	if err != nil {
		t.Fatal(err)
	}
	bottom := randomBlob(r, -1, 1, 16, 20, 12, 12)
	tops := setup(t, l, []*blob.Blob{bottom})
	for i := range tops[0].Diff() {
		tops[0].Diff()[i] = r.Range(-1, 1)
	}
	bottoms := []*blob.Blob{bottom}
	privs := make([][]*blob.Blob, 2)
	for w := range privs {
		for _, p := range l.Params() {
			privs[w] = append(privs[w], blob.New(p.Shape()...))
		}
	}
	n := l.ForwardExtent()
	step := func() {
		for rank := range privs {
			lo, hi := par.Chunk(n, len(privs), rank)
			l.ForwardRange(lo, hi, bottoms, tops)
		}
		for rank := range privs {
			lo, hi := par.Chunk(n, len(privs), rank)
			l.BackwardRange(lo, hi, bottoms, tops, privs[rank])
		}
	}
	for i := 0; i < 4; i++ { // grow scratch, fill the buffer pools
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > 0 {
		t.Fatalf("lowered conv band forward+backward allocates %.1f objects per step, want 0", allocs)
	}
}
