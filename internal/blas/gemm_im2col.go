package blas

import "fmt"

// This file is the implicit-GEMM convolution: the blocked kernel's B
// panels are packed straight from the image through the im2col view, so
// no column matrix is ever built (cuDNN's "lowering on the fly", Chetlur
// et al. 2014, against Caffe's explicit im2col buffer). The packers write
// exactly the panel values Im2col followed by packB writes, so every
// result is bit-identical to the explicit lowering.

// ConvGeom is the geometry of a 2-D convolution's im2col lowering: one
// Channels x Height x Width image swept by a KernelH x KernelW window
// with zero padding PadH/PadW and stride StrideH/StrideW. Im2col of one
// image is the ColRows() x ColCols() matrix with rows (c, kh, kw) and
// columns (oh, ow).
type ConvGeom struct {
	Channels, Height, Width int
	KernelH, KernelW        int
	PadH, PadW              int
	StrideH, StrideW        int
}

// OutH is the output height, ConvOutSize over the rows.
func (g *ConvGeom) OutH() int { return ConvOutSize(g.Height, g.KernelH, g.PadH, g.StrideH) }

// OutW is the output width, ConvOutSize over the columns.
func (g *ConvGeom) OutW() int { return ConvOutSize(g.Width, g.KernelW, g.PadW, g.StrideW) }

// ColRows is the row count of the column matrix, Channels*KernelH*KernelW.
func (g *ConvGeom) ColRows() int { return g.Channels * g.KernelH * g.KernelW }

// ColCols is the column count of the column matrix, OutH*OutW.
func (g *ConvGeom) ColCols() int { return g.OutH() * g.OutW() }

// ImageLen is the length of one image, Channels*Height*Width.
func (g *ConvGeom) ImageLen() int { return g.Channels * g.Height * g.Width }

// GemmIm2col computes rows [rowLo, rowHi) of the convolution forward for
// a band of images: for each sample s in [0, samples),
//
//	C_s = alpha * A * im2col(im_s) + beta * C_s
//
// where A is m x ColRows() (row stride lda), im holds the images back to
// back (ImageLen() floats each) and c holds one m x ColCols() block per
// sample back to back. The blocked path runs one GEMM over the whole
// band, N = samples*ColCols(): A is packed once per KC x NC block rather
// than once per sample, and a micro-tile that straddles two samples is
// written back in two pieces.
//
// The blocked-vs-reference dispatch looks at the per-sample shape
// (ColCols(), ColRows()), never at the band's N, and N-blocking never
// changes an element's K order, so every element is bit-identical to
// Gemm(NoTrans, NoTrans, m, ColCols(), ColRows(), alpha, a, lda,
// Im2col(im_s), ColCols(), beta, c_s, ColCols()) at any band split. A nil
// scratch borrows one from the package pool.
func GemmIm2col(s *GemmScratch, g *ConvGeom, samples, m int, alpha float32, a []float32, lda int, im []float32, beta float32, c []float32, rowLo, rowHi int) {
	k, ohw, chw := g.ColRows(), g.ColCols(), g.ImageLen()
	checkIm2col(g, m, k, a, lda, rowLo, rowHi)
	if len(im) < samples*chw || len(c) < samples*m*ohw {
		panic(fmt.Sprintf("blas: GemmIm2col: %d samples need im >= %d and c >= %d floats, have %d and %d",
			samples, samples*chw, samples*m*ohw, len(im), len(c)))
	}
	if samples <= 0 || rowLo >= rowHi {
		return
	}
	if s == nil {
		s = GetScratch()
		defer PutScratch(s)
	}
	if !useBlockedGemm(ohw, k) {
		for smp := 0; smp < samples; smp++ {
			gemmRefPacked(s, ohw, k, alpha, a, lda, &bOperand{b: im[smp*chw:], geom: g},
				beta, c[smp*m*ohw:], ohw, rowLo, rowHi)
		}
		return
	}
	gemmBlockedOps(s, NoTrans, samples*ohw, k, alpha, a, lda, &bOperand{b: im, geom: g},
		beta, &cOperand{c: c, ldc: ohw, segN: ohw, segStride: m * ohw}, rowLo, rowHi)
}

// GemmIm2colT computes rows [rowLo, rowHi) of
//
//	C = alpha * A * im2col(im)ᵀ + beta * C
//
// for one image: A is m x ColCols() (row stride lda) and C is
// m x ColRows() (row stride ldc). With A = dTop and beta = 1 this is the
// convolution weight gradient. Each element is bit-identical to
// Gemm(NoTrans, Trans, m, ColRows(), ColCols(), alpha, a, lda,
// Im2col(im), ColCols(), beta, c, ldc). Folding several samples into K
// would change the summation order, so callers make one call per
// sample. A nil scratch borrows one from the package pool.
func GemmIm2colT(s *GemmScratch, g *ConvGeom, m int, alpha float32, a []float32, lda int, im []float32, beta float32, c []float32, ldc int, rowLo, rowHi int) {
	n, k := g.ColRows(), g.ColCols()
	checkIm2col(g, m, k, a, lda, rowLo, rowHi)
	if len(im) < g.ImageLen() || ldc < n || (m > 0 && len(c) < (m-1)*ldc+n) {
		panic(fmt.Sprintf("blas: GemmIm2colT: need im >= %d, ldc >= %d and c >= %d floats, have %d, %d and %d",
			g.ImageLen(), n, (m-1)*ldc+n, len(im), ldc, len(c)))
	}
	if rowLo >= rowHi {
		return
	}
	if s == nil {
		s = GetScratch()
		defer PutScratch(s)
	}
	b := &bOperand{trans: Trans, b: im, geom: g}
	if !useBlockedGemm(n, k) {
		gemmRefPacked(s, n, k, alpha, a, lda, b, beta, c, ldc, rowLo, rowHi)
		return
	}
	gemmBlockedOps(s, NoTrans, n, k, alpha, a, lda, b, beta, &cOperand{c: c, ldc: ldc, segN: n}, rowLo, rowHi)
}

// checkIm2col validates the geometry, the row band and the m x k operand
// A shared by both entry points.
func checkIm2col(g *ConvGeom, m, k int, a []float32, lda, rowLo, rowHi int) {
	if g.Channels <= 0 || g.KernelH <= 0 || g.KernelW <= 0 || g.StrideH <= 0 || g.StrideW <= 0 ||
		g.PadH < 0 || g.PadW < 0 || g.OutH() <= 0 || g.OutW() <= 0 {
		panic(fmt.Sprintf("blas: bad convolution geometry %+v", *g))
	}
	if rowLo < 0 || rowHi > m || rowLo > rowHi {
		panic(fmt.Sprintf("blas: bad row band [%d,%d) for m=%d", rowLo, rowHi, m))
	}
	if lda < k || (m > 0 && len(a) < (m-1)*lda+k) {
		panic(fmt.Sprintf("blas: im2col gemm A: need lda >= %d and len >= %d, have %d and %d", k, (m-1)*lda+k, lda, len(a)))
	}
}

// gemmRefPacked is gemmRef (NoTrans A) for a B reachable only through its
// packer: a kc = 1 panel block is one row of op(B), contiguous, so it
// packs op(B) row by row and applies gemmRef's exact per-element update —
// beta first, then c += (alpha*a_il)*b_l over increasing l, skipping
// a_il == 0 — which keeps the bits equal to gemmRef on the materialized
// matrix.
func gemmRefPacked(s *GemmScratch, n, k int, alpha float32, a []float32, lda int, b *bOperand, beta float32, c []float32, ldc, rowLo, rowHi int) {
	gemmScaleRows(n, beta, c, ldc, rowLo, rowHi)
	if alpha == 0 {
		return
	}
	s.ensure(0, roundUp(n, gemmNR))
	row := s.bp[:n]
	for l := 0; l < k; l++ {
		b.pack(s, l, 1, 0, n)
		for i := rowLo; i < rowHi; i++ {
			av := a[i*lda+l]
			if av == 0 {
				continue
			}
			av *= alpha
			axpyTo(c[i*ldc:i*ldc+n], row, av)
		}
	}
}

// validRange returns the range [lo, hi) of output positions o in
// [0, out) whose input index o*stride - pad + k lies inside [0, in).
func validRange(out, in, k, pad, stride int) (lo, hi int) {
	off := k - pad // input index at o == 0
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	hi = out
	if last := in - 1 - off; last < 0 {
		hi = 0
	} else if h := last/stride + 1; h < hi {
		hi = h
	}
	return min(lo, hi), hi
}

// imRun is a stretch of panel columns [j, j+n) of the NoTrans view that
// share one (sample, oh): per panel row, one image-row segment. base is
// the image offset of its first column before the row's kernel offset is
// added, h is oh*StrideH - PadH and ow its first output column.
type imRun struct {
	j, n, base, h, ow int
}

// kernRow is the per-row part of an im2col address: row (c, kh, kw)
// reads image offset off (c*H*W + kh*W + kw - PadW, before the column's
// own offset) and is in bounds for output columns [owLo, owHi).
type kernRow struct {
	off, kh, owLo, owHi int
}

// packIm2col packs op(B)[pc:pc+kc, jc:jc+nc] of the NoTrans im2col view
// of a band of images — rows (c, kh, kw), columns (sample, oh, ow) — into
// nr-wide micro-panels, writing the same values as Im2col per sample
// followed by packB. Each panel's columns are split once into runs that
// share a (sample, oh); per panel row, a run is one image-row segment —
// a straight copy at stride 1 — zero-filled where it overhangs the
// padding, with no per-element bounds test.
func packIm2col(dst []float32, rows *[gemmKC]kernRow, g *ConvGeom, im []float32, pc, kc, jc, nc int) {
	nr := gemmNR
	outW := g.OutW()
	ohw := g.OutH() * outW
	chw := g.ImageLen()
	kk := g.KernelH * g.KernelW
	c, r := pc/kk, pc%kk
	kh, kw := r/g.KernelW, r%g.KernelW
	for l := range rows[:kc] {
		lo, hi := validRange(outW, g.Width, kw, g.PadW, g.StrideW)
		rows[l] = kernRow{off: (c*g.Height+kh)*g.Width + kw - g.PadW, kh: kh, owLo: lo, owHi: hi}
		if kw++; kw == g.KernelW {
			kw = 0
			if kh++; kh == g.KernelH {
				kh = 0
				c++
			}
		}
	}
	var runs [gemmNRMax]imRun
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		nRuns := 0
		for j := 0; j < cols; nRuns++ {
			q := jc + jr + j
			smp, p := q/ohw, q%ohw
			oh, ow := p/outW, p%outW
			n := min(cols-j, outW-ow)
			h := oh*g.StrideH - g.PadH
			runs[nRuns] = imRun{j: j, n: n, base: smp*chw + h*g.Width + ow*g.StrideW, h: h, ow: ow}
			j += n
		}
		panel := dst[(jr/nr)*kc*nr : (jr/nr+1)*kc*nr]
		for l, kr := range rows[:kc] {
			row := panel[l*nr : (l+1)*nr]
			for _, run := range runs[:nRuns] {
				seg := row[run.j : run.j+run.n]
				lo := min(max(kr.owLo-run.ow, 0), run.n)
				hi := min(max(kr.owHi-run.ow, lo), run.n)
				if ih := run.h + kr.kh; ih < 0 || ih >= g.Height {
					lo, hi = run.n, run.n
				}
				for t := 0; t < lo; t++ {
					seg[t] = 0
				}
				if lo < hi {
					out := seg[lo:hi]
					src := im[run.base+kr.off+lo*g.StrideW:]
					if g.StrideW == 1 {
						src = src[:len(out)]
						for t := range out {
							out[t] = src[t]
						}
					} else {
						for t := range out {
							out[t] = src[t*g.StrideW]
						}
					}
				}
				for t := hi; t < run.n; t++ {
					seg[t] = 0
				}
			}
			for j := cols; j < nr; j++ {
				row[j] = 0
			}
		}
	}
}

// packIm2colT packs op(B)[pc:pc+kc, jc:jc+nc] of the Trans view
// im2col(im)ᵀ of one image — rows (oh, ow), columns (c, kh, kw) — into
// nr-wide micro-panels, writing the same values as Im2col followed by a
// transposed packB. A panel's columns are up to nr kernel taps, so per
// panel row (one output position) the pack is a gather of the taps'
// fixed image offsets from the window's origin: a table lookup per
// element where the window lies inside the image, and a bounds test per
// tap only on the rows whose window overlaps the padding.
func packIm2colT(dst []float32, g *ConvGeom, im []float32, pc, kc, jc, nc int) {
	nr := gemmNR
	outW := g.OutW()
	kk := g.KernelH * g.KernelW
	var off, tkh, tkw [gemmNRMax]int
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		panel := dst[(jr/nr)*kc*nr : (jr/nr+1)*kc*nr]
		for j := 0; j < cols; j++ {
			q := jc + jr + j
			c, r := q/kk, q%kk
			tkh[j], tkw[j] = r/g.KernelW, r%g.KernelW
			off[j] = (c*g.Height+tkh[j])*g.Width + tkw[j]
		}
		offs, khs, kws := off[:cols], tkh[:cols], tkw[:cols]
		oh, ow := pc/outW, pc%outW
		for l := 0; l < kc; l++ {
			row := panel[l*nr : (l+1)*nr]
			out := row[:cols]
			ih0 := oh*g.StrideH - g.PadH
			iw0 := ow*g.StrideW - g.PadW
			origin := ih0*g.Width + iw0 // image offset of the window's (0, 0) tap
			if ih0 >= 0 && iw0 >= 0 && ih0+g.KernelH <= g.Height && iw0+g.KernelW <= g.Width {
				win := im[origin:]
				for j, o := range offs {
					out[j] = win[o]
				}
			} else {
				for j, o := range offs {
					out[j] = 0
					if ih, iw := ih0+khs[j], iw0+kws[j]; ih >= 0 && ih < g.Height && iw >= 0 && iw < g.Width {
						out[j] = im[origin+o]
					}
				}
			}
			for j := cols; j < nr; j++ {
				row[j] = 0
			}
			if ow++; ow == outW {
				ow = 0
				oh++
			}
		}
	}
}
