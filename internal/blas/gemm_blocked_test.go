package blas

import (
	"fmt"
	"testing"
	"time"

	"coarsegrain/internal/par"
	"coarsegrain/internal/rng"
)

// refFull runs the reference kernel over all rows — the baseline every
// blocked result is differentially checked against.
func refFull(transA, transB Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	gemmRef(transA, transB, n, k, alpha, a, lda, b, ldb, beta, c, ldc, 0, m)
}

// storage returns the stored extent (rows, cols) of an operand under op.
func storage(trans Transpose, rows, cols int) (int, int) {
	if trans == Trans {
		return cols, rows
	}
	return rows, cols
}

// TestBlockedGemmDifferential sweeps the blocked kernel against gemmRef
// over odd/prime dimensions (so every M, N and K edge-tile path runs),
// all four transpose combinations, the beta values the layers use, and
// non-trivial leading strides (operands embedded in wider matrices).
//
// Tolerance: the two kernels accumulate in float32 in different orders
// (gemmRef keeps a running row sum; the blocked kernel sums KC-sized
// partials in registers). For |entries| <= 1 and K <= 384 the worst-case
// reassociation error is a few hundred ulps of the K-term dot product,
// comfortably below 1e-3 absolute; 1e-4 held over the full sweep in
// practice, so that is the bound we pin.
func TestBlockedGemmDifferential(t *testing.T) {
	r := rng.New(11, 11)
	dims := []struct{ m, n, k int }{
		{1, 7, 64},     // single row, K beyond one register tile
		{3, 5, 11},     // everything smaller than one micro-tile pair
		{4, 4, 257},    // exact micro-tile, K just past one KC block
		{13, 17, 19},   // odd primes everywhere
		{29, 31, 37},   // primes past one micro-tile in all dims
		{64, 64, 64},   // exact macro boundary
		{67, 129, 263}, // one past MC / NR / KC boundaries
		{32, 1024, 75}, // CIFAR-10-full conv1 lowered shape
	}
	for _, d := range dims {
		for _, ta := range []Transpose{NoTrans, Trans} {
			for _, tb := range []Transpose{NoTrans, Trans} {
				for _, beta := range []float32{0, 1, 0.5} {
					// Embed each operand in a matrix padded by a few
					// columns so lda/ldb/ldc exceed the minimal stride.
					arows, acols := storage(ta, d.m, d.k)
					brows, bcols := storage(tb, d.k, d.n)
					lda, ldb, ldc := acols+3, bcols+5, d.n+7
					a := randomSlice(r, arows*lda)
					b := randomSlice(r, brows*ldb)
					c0 := randomSlice(r, d.m*ldc)
					got := append([]float32(nil), c0...)
					want := append([]float32(nil), c0...)
					s := &GemmScratch{}
					GemmWithScratch(s, ta, tb, d.m, d.n, d.k, 0.75, a, lda, b, ldb, beta, got, ldc)
					refFull(ta, tb, d.m, d.n, d.k, 0.75, a, lda, b, ldb, beta, want, ldc)
					if diff := maxAbsDiff(got, want); diff > 1e-4 {
						t.Errorf("m=%d n=%d k=%d ta=%v tb=%v beta=%v: max diff %g",
							d.m, d.n, d.k, ta, tb, beta, diff)
					}
					// Padding columns of C must be untouched.
					for i := 0; i < d.m; i++ {
						for j := d.n; j < ldc; j++ {
							if got[i*ldc+j] != c0[i*ldc+j] {
								t.Fatalf("m=%d n=%d k=%d: C padding clobbered at (%d,%d)", d.m, d.n, d.k, i, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestBlockedGemmAlphaZero checks the degenerate path: alpha == 0 must
// reduce to C = beta*C without reading A or B.
func TestBlockedGemmAlphaZero(t *testing.T) {
	r := rng.New(12, 12)
	m, n, k := 9, 130, 40 // blocked-path shape
	if !useBlockedGemm(n, k) {
		t.Fatal("shape unexpectedly below blocked threshold")
	}
	c0 := randomSlice(r, m*n)
	for _, beta := range []float32{0, 1, 0.5} {
		got := append([]float32(nil), c0...)
		Gemm(NoTrans, NoTrans, m, n, k, 0, make([]float32, m*k), k, make([]float32, k*n), n, beta, got, n)
		for i, v := range got {
			want := beta * c0[i]
			if v != want {
				t.Fatalf("beta=%v: c[%d] = %v, want %v", beta, i, v, want)
			}
		}
	}
}

// bandShapes are the Gemms the band-invariance tests split: one deep in
// the blocked region, and two just inside the measured dispatch boundary
// — LeNet's conv2 backward-data Gemm (Wᵀ·dTop, TransA) and a small NN
// shape that only the AVX2 rule sends to the blocked kernel.
var bandShapes = []struct {
	m, n, k int
	ta, tb  Transpose
}{
	{23, 129, 300, NoTrans, NoTrans},
	{500, 64, 50, Trans, NoTrans},
	{10, 64, 32, NoTrans, NoTrans},
}

// TestBlockedGemmBandInvariance pins the determinism contract directly:
// computing C in arbitrary (even misaligned) row bands must be
// bit-identical to the full-range call, because the coarse engine hands
// layers arbitrary sample bands. Every shape is cut into 1..8 even bands
// and into a few ragged ones.
func TestBlockedGemmBandInvariance(t *testing.T) {
	r := rng.New(13, 13)
	for _, sh := range bandShapes {
		m, n, k := sh.m, sh.n, sh.k
		arows, acols := storage(sh.ta, m, k)
		brows, bcols := storage(sh.tb, k, n)
		a := randomSlice(r, arows*acols)
		b := randomSlice(r, brows*bcols)
		want := make([]float32, m*n)
		Gemm(sh.ta, sh.tb, m, n, k, 1, a, acols, b, bcols, 0, want, n)
		cutSets := [][]int{{0, 1, m}, {0, 5, 9, m}, {0, 4, 8, m - 1, m}}
		for bands := 1; bands <= 8; bands++ {
			cuts := []int{0}
			for i := 1; i <= bands; i++ {
				cuts = append(cuts, i*m/bands)
			}
			cutSets = append(cutSets, cuts)
		}
		for _, cuts := range cutSets {
			got := make([]float32, m*n)
			for ci := 0; ci+1 < len(cuts); ci++ {
				GemmRows(sh.ta, sh.tb, m, n, k, 1, a, acols, b, bcols, 0, got, n, cuts[ci], cuts[ci+1])
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%dx%dx%d cuts %v: band result differs at %d: %v vs %v", m, n, k, cuts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmParallelBlockedBitIdentical is the parallel counterpart: at
// every worker count 1..8 (and 16) GemmParallel must reproduce the
// serial Gemm bit for bit, on a deep blocked shape and on the shapes at
// the dispatch boundary.
func TestGemmParallelBlockedBitIdentical(t *testing.T) {
	r := rng.New(14, 14)
	shapes := append([]struct {
		m, n, k int
		ta, tb  Transpose
	}{{37, 141, 97, NoTrans, Trans}}, bandShapes[1:]...)
	for _, sh := range shapes {
		m, n, k := sh.m, sh.n, sh.k
		arows, acols := storage(sh.ta, m, k)
		brows, bcols := storage(sh.tb, k, n)
		a := randomSlice(r, arows*acols)
		b := randomSlice(r, brows*bcols)
		want := make([]float32, m*n)
		Gemm(sh.ta, sh.tb, m, n, k, 1, a, acols, b, bcols, 0, want, n)
		for _, workers := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16} {
			p := par.NewPool(workers)
			got := make([]float32, m*n)
			GemmParallel(p, sh.ta, sh.tb, m, n, k, 1, a, acols, b, bcols, 0, got, n)
			p.Close()
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%dx%dx%d workers=%d: parallel gemm differs at %d", m, n, k, workers, i)
				}
			}
		}
	}
}

// TestBlockedGemmDispatchRule pins the dispatch predicate: the rule is
// the active micro-kernel's, fixed at init next to gemmNR, and it is a
// function of (n, k) alone. On the AVX2 kernel the measured boundary
// sends LeNet's conv2 backward-data Gemm (n=64, k=50) to the blocked
// kernel; the scalar kernel keeps the n*k >= 4096 cut-off.
func TestBlockedGemmDispatchRule(t *testing.T) {
	want := scalarBlockedRule
	if gemmNR == 16 {
		want = avx4x16BlockedRule
	}
	if gemmBlockedRule != want {
		t.Fatalf("kernel with nr=%d dispatches by %+v, want %+v", gemmNR, gemmBlockedRule, want)
	}
	cases := []struct {
		rule blockedRule
		n, k int
		want bool
	}{
		{avx4x16BlockedRule, 64, 50, true},
		{avx4x16BlockedRule, 64, 32, true},
		{avx4x16BlockedRule, 4, 4, true},
		{avx4x16BlockedRule, 3, 64, false},
		{avx4x16BlockedRule, 64, 3, false},
		{avx4x16BlockedRule, 64, 1, false},
		{scalarBlockedRule, 64, 50, false},
		{scalarBlockedRule, 64, 64, true},
		{scalarBlockedRule, 4096, 7, false},
		{scalarBlockedRule, 3, 4096, false},
	}
	for _, c := range cases {
		if got := c.rule.blocked(c.n, c.k); got != c.want {
			t.Errorf("%+v.blocked(%d, %d) = %v, want %v", c.rule, c.n, c.k, got, c.want)
		}
	}
	for _, n := range []int{1, 3, 4, 16, 64, 500} {
		for _, k := range []int{1, 3, 4, 8, 50, 4096} {
			if useBlockedGemm(n, k) != want.blocked(n, k) {
				t.Fatalf("useBlockedGemm(%d, %d) disagrees with the active rule", n, k)
			}
		}
	}
}

// TestGemmScratchReuse checks a scratch can serve differently shaped
// calls back to back (the per-sample lowered-convolution pattern).
func TestGemmScratchReuse(t *testing.T) {
	r := rng.New(15, 15)
	s := &GemmScratch{}
	for _, d := range []struct{ m, n, k int }{{20, 576, 25}, {32, 1024, 75}, {50, 64, 500}} {
		a := randomSlice(r, d.m*d.k)
		b := randomSlice(r, d.k*d.n)
		got := make([]float32, d.m*d.n)
		want := make([]float32, d.m*d.n)
		GemmWithScratch(s, NoTrans, NoTrans, d.m, d.n, d.k, 1, a, d.k, b, d.n, 0, got, d.n)
		refFull(NoTrans, NoTrans, d.m, d.n, d.k, 1, a, d.k, b, d.n, 0, want, d.n)
		if diff := maxAbsDiff(got, want); diff > 1e-4 {
			t.Fatalf("shape %+v after reuse: max diff %g", d, diff)
		}
	}
}

func TestCheckGemmNamesOperand(t *testing.T) {
	capture := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	a := make([]float32, 64)
	for _, tc := range []struct {
		want string
		f    func()
	}{
		{"gemm A: lda", func() { Gemm(NoTrans, NoTrans, 2, 2, 4, 1, a, 1, a, 2, 0, a, 2) }},
		{"gemm B: ldb", func() { Gemm(NoTrans, NoTrans, 2, 4, 2, 1, a, 2, a, 1, 0, a, 4) }},
		{"gemm C: ldc", func() { Gemm(NoTrans, NoTrans, 2, 4, 2, 1, a, 2, a, 4, 0, a, 1) }},
		{"gemm A too short", func() { Gemm(NoTrans, NoTrans, 40, 1, 2, 1, a, 2, a, 1, 0, a, 1) }},
		{"gemm B too short", func() { Gemm(NoTrans, NoTrans, 1, 2, 40, 1, a, 40, a, 2, 0, a, 2) }},
		{"gemm C too short", func() { Gemm(NoTrans, NoTrans, 40, 2, 1, 1, a, 1, a, 2, 0, a, 2) }},
	} {
		msg := capture(tc.f)
		if msg == "" {
			t.Fatalf("%q case: expected panic", tc.want)
		}
		if !contains(msg, tc.want) {
			t.Fatalf("panic %q does not name operand (want substring %q)", msg, tc.want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// netGemmShapes are the Gemm shapes the two benchmark networks actually
// emit on their hot paths (per-sample lowered convolutions, batched inner
// products): measuring these, not synthetic squares, is what PERFORMANCE.md
// reports.
var netGemmShapes = []struct {
	name    string
	ta, tb  Transpose
	m, n, k int
}{
	{"lenet-conv1-fwd", NoTrans, NoTrans, 20, 576, 25},  // W(20x25) * col(25x576)
	{"lenet-conv2-fwd", NoTrans, NoTrans, 50, 64, 500},  // W(50x500) * col(500x64)
	{"lenet-conv2-bwdW", NoTrans, Trans, 50, 500, 64},   // dTop * colᵀ
	{"lenet-conv2-bwdX", Trans, NoTrans, 500, 64, 50},   // Wᵀ * dTop
	{"lenet-ip1-fwd", NoTrans, Trans, 64, 500, 800},     // X(64x800) * Wᵀ
	{"lenet-ip1-bwdW", Trans, NoTrans, 500, 800, 64},    // dYᵀ * X
	{"cifar-conv1-fwd", NoTrans, NoTrans, 32, 1024, 75}, // W(32x75) * col(75x1024)
	{"cifar-conv2-fwd", NoTrans, NoTrans, 32, 256, 800}, // W(32x800) * col(800x256)
	{"cifar-conv3-fwd", NoTrans, NoTrans, 64, 64, 800},  // W(64x800) * col(800x64)
	{"cifar-conv1-bwdX", Trans, NoTrans, 75, 1024, 32},  // Wᵀ * dTop
}

// BenchmarkGemmNetShapes times blocked vs reference on the real network
// shapes; the impl=ref numbers are the seed kernel's (the i-k-j loop is
// unchanged), so one run of this benchmark is the before/after table.
func BenchmarkGemmNetShapes(b *testing.B) {
	r := rng.New(16, 16)
	for _, sh := range netGemmShapes {
		arows, acols := storage(sh.ta, sh.m, sh.k)
		brows, bcols := storage(sh.tb, sh.k, sh.n)
		a := randomSlice(r, arows*acols)
		bm := randomSlice(r, brows*bcols)
		c := make([]float32, sh.m*sh.n)
		flops := 2 * int64(sh.m) * int64(sh.n) * int64(sh.k)
		for _, impl := range []string{"ref", "blocked"} {
			b.Run(fmt.Sprintf("%s/impl=%s", sh.name, impl), func(b *testing.B) {
				s := &GemmScratch{}
				b.SetBytes(flops) // report "MB/s" as MFLOP/s
				for i := 0; i < b.N; i++ {
					if impl == "ref" {
						gemmRef(sh.ta, sh.tb, sh.n, sh.k, 1, a, acols, bm, bcols, 0, c, sh.n, 0, sh.m)
					} else {
						GemmWithScratch(s, sh.ta, sh.tb, sh.m, sh.n, sh.k, 1, a, acols, bm, bcols, 0, c, sh.n)
					}
				}
			})
		}
	}
}

// withKernel runs f with the blocked kernel's process-fixed selection
// swapped for (nr, kernel, rule) and restores it afterwards. Only the
// serial benchmark below uses it, to measure the portable kernel on hosts
// where init picked the assembly one; nothing may run Gemm concurrently.
func withKernel(nr int, kernel func([]float32, []float32, int, *[gemmMR * gemmNRMax]float32), rule blockedRule, f func()) {
	oldNR, oldKernel, oldRule := gemmNR, gemmMicroKernel, gemmBlockedRule
	gemmNR, gemmMicroKernel, gemmBlockedRule = nr, kernel, rule
	defer func() { gemmNR, gemmMicroKernel, gemmBlockedRule = oldNR, oldKernel, oldRule }()
	f()
}

// BenchmarkGemmDispatchSweep re-derives the dispatch rule on the host it
// runs on: for each small (trans, M, N, K) it times gemmRef and the
// blocked kernel (called directly, bypassing useBlockedGemm) and reports
// ref-GFLOP/s, blk-GFLOP/s and their ratio, for the active micro-kernel
// and for the portable scalar one. The rule picked at init is the region
// of (N, K) where blk/ref > 1 at every M the layers issue (M >= 10); it
// must not depend on M (see the determinism contract in gemm_blocked.go).
//
//	go test ./internal/blas -run '^$' -bench GemmDispatchSweep -benchtime 20ms
func BenchmarkGemmDispatchSweep(b *testing.B) {
	type kern struct {
		name   string
		nr     int
		kernel func([]float32, []float32, int, *[gemmMR * gemmNRMax]float32)
		rule   blockedRule
	}
	kernels := []kern{{"scalar4x4", 4, microKernelScalar4x4, scalarBlockedRule}}
	if gemmNR != 4 {
		kernels = append(kernels, kern{fmt.Sprintf("active%dx%d", gemmMR, gemmNR), gemmNR, gemmMicroKernel, gemmBlockedRule})
	}
	trans := []struct {
		name   string
		ta, tb Transpose
	}{{"NN", NoTrans, NoTrans}, {"TN", Trans, NoTrans}, {"NT", NoTrans, Trans}}
	r := rng.New(17, 17)
	for _, kn := range kernels {
		for _, tr := range trans {
			for _, m := range []int{1, 10, 64, 500} {
				for _, n := range []int{2, 4, 16, 64} {
					for _, k := range []int{1, 4, 8, 32, 64} {
						arows, acols := storage(tr.ta, m, k)
						brows, bcols := storage(tr.tb, k, n)
						a := randomSlice(r, arows*acols)
						bm := randomSlice(r, brows*bcols)
						c := make([]float32, m*n)
						name := fmt.Sprintf("%s/%s/m=%d/n=%d/k=%d", kn.name, tr.name, m, n, k)
						b.Run(name, func(b *testing.B) {
							withKernel(kn.nr, kn.kernel, kn.rule, func() {
								s := &GemmScratch{}
								start := time.Now()
								for i := 0; i < b.N; i++ {
									gemmRef(tr.ta, tr.tb, n, k, 1, a, acols, bm, bcols, 0, c, n, 0, m)
								}
								ref := time.Since(start)
								start = time.Now()
								for i := 0; i < b.N; i++ {
									gemmBlocked(s, tr.ta, tr.tb, n, k, 1, a, acols, bm, bcols, 0, c, n, 0, m)
								}
								blk := time.Since(start)
								flops := 2 * float64(m) * float64(n) * float64(k) * float64(b.N)
								b.ReportMetric(flops/ref.Seconds()/1e9, "ref-GFLOP/s")
								b.ReportMetric(flops/blk.Seconds()/1e9, "blk-GFLOP/s")
								b.ReportMetric(ref.Seconds()/blk.Seconds(), "blk/ref")
							})
						})
					}
				}
			}
		}
	}
}
