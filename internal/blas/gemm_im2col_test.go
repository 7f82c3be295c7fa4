package blas

import (
	"fmt"
	"math"
	"testing"

	"coarsegrain/internal/rng"
)

// im2colNaive and col2imNaive are the per-element-tested loops Im2col
// and Col2im replaced; the row-run rewrites must match them bit for bit.
func im2colNaive(im []float32, g *ConvGeom, col []float32) {
	outH, outW := g.OutH(), g.OutW()
	idx := 0
	for c := 0; c < g.Channels; c++ {
		for kh := 0; kh < g.KernelH; kh++ {
			for kw := 0; kw < g.KernelW; kw++ {
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						ih := oh*g.StrideH - g.PadH + kh
						iw := ow*g.StrideW - g.PadW + kw
						col[idx] = 0
						if ih >= 0 && ih < g.Height && iw >= 0 && iw < g.Width {
							col[idx] = im[(c*g.Height+ih)*g.Width+iw]
						}
						idx++
					}
				}
			}
		}
	}
}

func col2imNaive(col []float32, g *ConvGeom, im []float32) {
	outH, outW := g.OutH(), g.OutW()
	idx := 0
	for c := 0; c < g.Channels; c++ {
		for kh := 0; kh < g.KernelH; kh++ {
			for kw := 0; kw < g.KernelW; kw++ {
				for oh := 0; oh < outH; oh++ {
					for ow := 0; ow < outW; ow++ {
						ih := oh*g.StrideH - g.PadH + kh
						iw := ow*g.StrideW - g.PadW + kw
						if ih >= 0 && ih < g.Height && iw >= 0 && iw < g.Width {
							im[(c*g.Height+ih)*g.Width+iw] += col[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

func im2col(im []float32, g *ConvGeom, col []float32) {
	Im2col(im, g.Channels, g.Height, g.Width, g.KernelH, g.KernelW, g.PadH, g.PadW, g.StrideH, g.StrideW, col)
}

// sweepGeoms is the geometry sweep of the bit-exactness tests: channels
// 1-3, every non-square kernel up to 5x5, pad 0-2 and stride 1-3 per
// axis. The 7x6 image makes OHW a non-multiple of every micro-tile width
// for most of the sweep.
func sweepGeoms() []ConvGeom {
	var gs []ConvGeom
	pads := [][2]int{{0, 0}, {1, 2}, {2, 1}, {2, 2}}
	strides := [][2]int{{1, 1}, {2, 3}, {3, 2}, {1, 2}}
	for ch := 1; ch <= 3; ch++ {
		for kh := 1; kh <= 5; kh++ {
			for kw := 1; kw <= 5; kw++ {
				for _, p := range pads {
					for _, s := range strides {
						g := ConvGeom{Channels: ch, Height: 7, Width: 6, KernelH: kh, KernelW: kw,
							PadH: p[0], PadW: p[1], StrideH: s[0], StrideW: s[1]}
						if g.OutH() > 0 && g.OutW() > 0 {
							gs = append(gs, g)
						}
					}
				}
			}
		}
	}
	return gs
}

// sameBits reports the first index where a and b differ as bit patterns.
func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

func TestIm2colCol2imRowRunsMatchNaive(t *testing.T) {
	r := rng.New(21, 21)
	for _, g := range sweepGeoms() {
		im := randomSlice(r, g.ImageLen())
		n := g.ColRows() * g.ColCols()
		got, want := make([]float32, n), make([]float32, n)
		for i := range got {
			got[i] = 99 // Im2col must overwrite every element
		}
		im2col(im, &g, got)
		im2colNaive(im, &g, want)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%+v: Im2col[%d] = %v, naive %v", g, i, got[i], want[i])
		}
		col := randomSlice(r, n)
		base := randomSlice(r, g.ImageLen())
		gotIm, wantIm := append([]float32(nil), base...), append([]float32(nil), base...)
		Col2im(col, g.Channels, g.Height, g.Width, g.KernelH, g.KernelW, g.PadH, g.PadW, g.StrideH, g.StrideW, gotIm)
		col2imNaive(col, &g, wantIm)
		if i, ok := sameBits(gotIm, wantIm); !ok {
			t.Fatalf("%+v: Col2im[%d] = %v, naive %v", g, i, gotIm[i], wantIm[i])
		}
	}
}

// explicitBandCol materializes the NoTrans view the band forward packs
// from: the per-sample Im2col matrices side by side, CKK x (samples*OHW).
func explicitBandCol(im []float32, g *ConvGeom, samples int) []float32 {
	k, ohw := g.ColRows(), g.ColCols()
	one := make([]float32, k*ohw)
	band := make([]float32, k*samples*ohw)
	for s := 0; s < samples; s++ {
		im2col(im[s*g.ImageLen():], g, one)
		for row := 0; row < k; row++ {
			copy(band[row*samples*ohw+s*ohw:], one[row*ohw:(row+1)*ohw])
		}
	}
	return band
}

// packBlocks are (pc, kc, jc, nc) blocks of a k x n op(B): the whole
// matrix, an interior block and single-row/-column slivers.
func packBlocks(k, n int) [][4]int {
	return [][4]int{{0, k, 0, n}, {k / 3, k - k/3, n / 3, n - n/3}, {k - 1, 1, 0, n}, {0, k, n - 1, 1}}
}

// checkPackers compares both image packers with Im2col + packB on every
// block of packBlocks, requiring equal bits including the zero padding of
// the last panel. It returns a description of the first mismatch.
func checkPackers(im []float32, g *ConvGeom, samples int) string {
	k, ohw := g.ColRows(), g.ColCols()
	band := explicitBandCol(im, g, samples)
	col := make([]float32, k*ohw)
	im2col(im, g, col)
	var rows [gemmKC]kernRow
	views := []struct {
		name string
		k, n int
		want func(dst []float32, pc, kc, jc, nc int)
		got  func(dst []float32, pc, kc, jc, nc int)
	}{
		{"NoTrans", k, samples * ohw,
			func(d []float32, pc, kc, jc, nc int) { packB(d, NoTrans, band, samples*ohw, pc, kc, jc, nc) },
			func(d []float32, pc, kc, jc, nc int) { packIm2col(d, &rows, g, im, pc, kc, jc, nc) }},
		{"Trans", ohw, k,
			func(d []float32, pc, kc, jc, nc int) { packB(d, Trans, col, ohw, pc, kc, jc, nc) },
			func(d []float32, pc, kc, jc, nc int) { packIm2colT(d, g, im, pc, kc, jc, nc) }},
	}
	for _, v := range views {
		for _, blk := range packBlocks(v.k, v.n) {
			pc, kc, jc, nc := blk[0], blk[1], blk[2], blk[3]
			size := roundUp(nc, gemmNR) * kc
			want, got := make([]float32, size), make([]float32, size)
			for i := range got {
				got[i] = float32(math.NaN()) // the packer must write every slot
			}
			v.want(want, pc, kc, jc, nc)
			v.got(got, pc, kc, jc, nc)
			if i, ok := sameBits(got, want); !ok {
				return fmt.Sprintf("%s view of %+v (%d samples), block pc=%d kc=%d jc=%d nc=%d, nr=%d: slot %d = %v, explicit %v",
					v.name, *g, samples, pc, kc, jc, nc, gemmNR, i, got[i], want[i])
			}
		}
	}
	return ""
}

// TestIm2colPackersMatchExplicit pins the tentpole's equivalence: the
// image packers write exactly what Im2col followed by packB writes, for
// both B views, every geometry of the sweep, and both micro-tile widths
// (the active kernel's and the portable kernel's nr = 4).
func TestIm2colPackersMatchExplicit(t *testing.T) {
	r := rng.New(22, 22)
	for _, nr := range []int{gemmNR, 4} {
		withKernel(nr, gemmMicroKernel, gemmBlockedRule, func() {
			for _, g := range sweepGeoms() {
				im := randomSlice(r, 3*g.ImageLen())
				if msg := checkPackers(im, &g, 3); msg != "" {
					t.Fatal(msg)
				}
			}
		})
	}
}

// convCase is one geometry of the GEMM-level bit-identity tests.
type convCase struct {
	name string
	g    ConvGeom
	m    int
}

// gemmConvCases cover both dispatch paths and every blocking edge: K
// beyond one KC block (conv2), band N beyond one NC block (conv1), OHW not a
// multiple of nr so micro-tiles straddle samples, and shapes small
// enough that the per-sample rule picks the reference kernel.
var gemmConvCases = []convCase{
	{"lenet-conv1", ConvGeom{Channels: 1, Height: 28, Width: 28, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}, 20},
	{"lenet-conv2", ConvGeom{Channels: 20, Height: 12, Width: 12, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}, 50},
	{"pad-stride-ragged", ConvGeom{Channels: 3, Height: 11, Width: 9, KernelH: 3, KernelW: 4, PadH: 2, PadW: 1, StrideH: 2, StrideW: 1}, 7},
	{"ohw-below-nr", ConvGeom{Channels: 2, Height: 4, Width: 5, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}, 9},
	{"ref-path-tiny-ohw", ConvGeom{Channels: 4, Height: 3, Width: 3, KernelH: 3, KernelW: 2, PadH: 0, PadW: 0, StrideH: 1, StrideW: 1}, 5},
	{"ref-path-tiny-k", ConvGeom{Channels: 1, Height: 9, Width: 8, KernelH: 1, KernelW: 2, StrideH: 1, StrideW: 2}, 6},
}

// TestGemmIm2colBandBitIdentical checks the band forward against the
// explicit per-sample Gemm at every band split from 1 to 8 (and with the
// rows split too, as the tuned engine does), requiring equal bits.
func TestGemmIm2colBandBitIdentical(t *testing.T) {
	r := rng.New(23, 23)
	const samples = 8
	for _, tc := range gemmConvCases {
		g := tc.g
		k, ohw, chw := g.ColRows(), g.ColCols(), g.ImageLen()
		im := randomSlice(r, samples*chw)
		w := randomSlice(r, tc.m*k)
		want := make([]float32, samples*tc.m*ohw)
		col := make([]float32, k*ohw)
		for s := 0; s < samples; s++ {
			im2col(im[s*chw:], &g, col)
			Gemm(NoTrans, NoTrans, tc.m, ohw, k, 1, w, k, col, ohw, 0, want[s*tc.m*ohw:], ohw)
		}
		for bands := 1; bands <= samples; bands++ {
			got := make([]float32, len(want))
			for i := range got {
				got[i] = float32(math.NaN()) // beta == 0 must not read C
			}
			s := &GemmScratch{}
			for b := 0; b < bands; b++ {
				lo, hi := b*samples/bands, (b+1)*samples/bands
				rowCut := (tc.m * b / bands) &^ (gemmMR - 1) // a second, row-wise split
				GemmIm2col(s, &g, hi-lo, tc.m, 1, w, k, im[lo*chw:], 0, got[lo*tc.m*ohw:], 0, rowCut)
				GemmIm2col(nil, &g, hi-lo, tc.m, 1, w, k, im[lo*chw:], 0, got[lo*tc.m*ohw:], rowCut, tc.m)
			}
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("%s, %d bands (blocked=%v): C[%d] = %v, per-sample Gemm %v",
					tc.name, bands, useBlockedGemm(ohw, k), i, got[i], want[i])
			}
		}
	}
}

// TestGemmIm2colTBitIdentical checks the weight-gradient form against
// Gemm(NoTrans, Trans) on the explicit column matrix, accumulating over
// several samples with beta = 1 as the layer does, with row bands.
func TestGemmIm2colTBitIdentical(t *testing.T) {
	r := rng.New(24, 24)
	for _, tc := range gemmConvCases {
		g := tc.g
		k, ohw, chw := g.ColRows(), g.ColCols(), g.ImageLen()
		const samples = 3
		im := randomSlice(r, samples*chw)
		dTop := randomSlice(r, samples*tc.m*ohw)
		ldc := k + 3
		want := randomSlice(r, tc.m*ldc)
		got := append([]float32(nil), want...)
		col := make([]float32, k*ohw)
		s := &GemmScratch{}
		for smp := 0; smp < samples; smp++ {
			im2col(im[smp*chw:], &g, col)
			Gemm(NoTrans, Trans, tc.m, k, ohw, 1, dTop[smp*tc.m*ohw:], ohw, col, ohw, 1, want, ldc)
			cut := (tc.m / 2) &^ (gemmMR - 1)
			GemmIm2colT(s, &g, tc.m, 1, dTop[smp*tc.m*ohw:], ohw, im[smp*chw:], 1, got, ldc, 0, cut)
			GemmIm2colT(s, &g, tc.m, 1, dTop[smp*tc.m*ohw:], ohw, im[smp*chw:], 1, got, ldc, cut, tc.m)
		}
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%s (blocked=%v): dW[%d] = %v, explicit %v", tc.name, useBlockedGemm(k, ohw), i, got[i], want[i])
		}
	}
}

// TestGemmIm2colAlphaBeta covers the general alpha/beta forms, which the
// layers do not use, against the explicit lowering.
func TestGemmIm2colAlphaBeta(t *testing.T) {
	r := rng.New(25, 25)
	for _, tc := range gemmConvCases {
		g := tc.g
		k, ohw := g.ColRows(), g.ColCols()
		im := randomSlice(r, g.ImageLen())
		a := randomSlice(r, tc.m*k)
		col := make([]float32, k*ohw)
		im2col(im, &g, col)
		for _, ab := range [][2]float32{{0.5, 0.25}, {0, 2}, {1, 1}} {
			want := randomSlice(r, tc.m*ohw)
			got := append([]float32(nil), want...)
			Gemm(NoTrans, NoTrans, tc.m, ohw, k, ab[0], a, k, col, ohw, ab[1], want, ohw)
			GemmIm2col(nil, &g, 1, tc.m, ab[0], a, k, im, ab[1], got, 0, tc.m)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("%s alpha=%v beta=%v: C[%d] = %v, explicit %v", tc.name, ab[0], ab[1], i, got[i], want[i])
			}
		}
	}
}

func TestGemmIm2colBadArgsPanic(t *testing.T) {
	g := ConvGeom{Channels: 1, Height: 4, Width: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1}
	a := make([]float32, 2*9)
	im := make([]float32, 16)
	c := make([]float32, 2*4)
	noStride := ConvGeom{Channels: 1, Height: 4, Width: 4, KernelH: 3, KernelW: 3}
	for name, f := range map[string]func(){
		"short image":  func() { GemmIm2col(nil, &g, 2, 2, 1, a, 9, im, 0, c, 0, 2) },
		"bad band":     func() { GemmIm2col(nil, &g, 1, 2, 1, a, 9, im, 0, c, 0, 3) },
		"short A":      func() { GemmIm2colT(nil, &g, 2, 1, a[:5], 4, im, 0, a, 9, 0, 2) },
		"zero stride":  func() { GemmIm2col(nil, &noStride, 1, 2, 1, a, 9, im, 0, c, 0, 2) },
		"short C (wT)": func() { GemmIm2colT(nil, &g, 2, 1, a, 4, im, 0, c, 9, 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzIm2colPack drives the packers and both GEMM entry points over
// arbitrary small geometries, requiring equal bits with the explicit
// Im2col lowering. The seed corpus lives in testdata/fuzz/FuzzIm2colPack.
func FuzzIm2colPack(f *testing.F) {
	f.Add(uint8(1), uint8(12), uint8(12), uint8(5), uint8(5), uint8(0), uint8(0), uint8(1), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, ch, h, w, kh, kw, ph, pw, sh, sw, samples uint8) {
		g := ConvGeom{Channels: int(ch%4) + 1, Height: int(h%13) + 1, Width: int(w%13) + 1,
			KernelH: int(kh%6) + 1, KernelW: int(kw%6) + 1, PadH: int(ph % 3), PadW: int(pw % 3),
			StrideH: int(sh%3) + 1, StrideW: int(sw%3) + 1}
		if g.OutH() <= 0 || g.OutW() <= 0 {
			t.Skip()
		}
		n := int(samples%4) + 1
		r := rng.New(uint64(ch)<<8|uint64(h), uint64(kw)<<8|uint64(samples))
		im := randomSlice(r, n*g.ImageLen())
		if msg := checkPackers(im, &g, n); msg != "" {
			t.Fatal(msg)
		}
		k, ohw, chw := g.ColRows(), g.ColCols(), g.ImageLen()
		const m = 5
		a := randomSlice(r, m*k)
		col := make([]float32, k*ohw)
		want := make([]float32, n*m*ohw)
		for s := 0; s < n; s++ {
			im2col(im[s*chw:], &g, col)
			Gemm(NoTrans, NoTrans, m, ohw, k, 1, a, k, col, ohw, 0, want[s*m*ohw:], ohw)
		}
		got := make([]float32, len(want))
		GemmIm2col(nil, &g, n, m, 1, a, k, im, 0, got, 0, m)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("GemmIm2col %+v x%d: C[%d] = %v, explicit %v", g, n, i, got[i], want[i])
		}
		dTop := randomSlice(r, m*ohw)
		wantW, gotW := make([]float32, m*k), make([]float32, m*k)
		im2col(im, &g, col)
		Gemm(NoTrans, Trans, m, k, ohw, 1, dTop, ohw, col, ohw, 1, wantW, k)
		GemmIm2colT(nil, &g, m, 1, dTop, ohw, im, 1, gotW, k, 0, m)
		if i, ok := sameBits(gotW, wantW); !ok {
			t.Fatalf("GemmIm2colT %+v: dW[%d] = %v, explicit %v", g, i, gotW[i], wantW[i])
		}
	})
}

// convBenchShapes are the convolution layers of the two benchmark nets,
// each with the band of samples one coarse worker lowers.
var convBenchShapes = []struct {
	name    string
	g       ConvGeom
	m, band int
}{
	{"lenet-conv1", ConvGeom{Channels: 1, Height: 28, Width: 28, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}, 20, 32},
	{"lenet-conv2", ConvGeom{Channels: 20, Height: 12, Width: 12, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}, 50, 32},
	{"cifar-conv1", ConvGeom{Channels: 3, Height: 32, Width: 32, KernelH: 5, KernelW: 5, PadH: 2, PadW: 2, StrideH: 1, StrideW: 1}, 32, 8},
	{"cifar-conv2", ConvGeom{Channels: 32, Height: 16, Width: 16, KernelH: 5, KernelW: 5, PadH: 2, PadW: 2, StrideH: 1, StrideW: 1}, 32, 8},
	{"cifar-conv3", ConvGeom{Channels: 32, Height: 8, Width: 8, KernelH: 5, KernelW: 5, PadH: 2, PadW: 2, StrideH: 1, StrideW: 1}, 64, 8},
}

// BenchmarkConvLowered times one band of a convolution's forward and
// weight gradient both ways: explicit (Im2col into a column buffer, then
// one Gemm per sample, the lowering Caffe uses) and image-packed
// (GemmIm2col over the band, GemmIm2colT per sample). MB/s reads as
// MFLOP/s.
//
//	go test ./internal/blas -run '^$' -bench ConvLowered
func BenchmarkConvLowered(b *testing.B) {
	r := rng.New(26, 26)
	for _, sh := range convBenchShapes {
		g := sh.g
		k, ohw, chw := g.ColRows(), g.ColCols(), g.ImageLen()
		im := randomSlice(r, sh.band*chw)
		w := randomSlice(r, sh.m*k)
		top := make([]float32, sh.band*sh.m*ohw)
		dW := make([]float32, sh.m*k)
		col := make([]float32, k*ohw)
		flops := 2 * int64(sh.band) * int64(sh.m) * int64(k) * int64(ohw)
		run := func(name string, f func(s *GemmScratch)) {
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				s := &GemmScratch{}
				b.SetBytes(flops)
				for i := 0; i < b.N; i++ {
					f(s)
				}
			})
		}
		run("fwd/explicit", func(s *GemmScratch) {
			for smp := 0; smp < sh.band; smp++ {
				im2col(im[smp*chw:], &g, col)
				GemmWithScratch(s, NoTrans, NoTrans, sh.m, ohw, k, 1, w, k, col, ohw, 0, top[smp*sh.m*ohw:], ohw)
			}
		})
		run("fwd/image-packed", func(s *GemmScratch) {
			GemmIm2col(s, &g, sh.band, sh.m, 1, w, k, im, 0, top, 0, sh.m)
		})
		run("bwdW/explicit", func(s *GemmScratch) {
			for smp := 0; smp < sh.band; smp++ {
				im2col(im[smp*chw:], &g, col)
				GemmWithScratch(s, NoTrans, Trans, sh.m, k, ohw, 1, top[smp*sh.m*ohw:], ohw, col, ohw, 1, dW, k)
			}
		})
		run("bwdW/image-packed", func(s *GemmScratch) {
			for smp := 0; smp < sh.band; smp++ {
				GemmIm2colT(s, &g, sh.m, 1, top[smp*sh.m*ohw:], ohw, im[smp*chw:], 1, dW, k, 0, sh.m)
			}
		})
	}
}
