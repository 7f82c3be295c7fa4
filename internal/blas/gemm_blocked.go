package blas

import "sync"

// This file implements the cache-blocked, panel-packed Gemm kernel — the
// GotoBLAS/BLIS structure (Goto & van de Geijn, 2008) that OpenBLAS (the
// paper's Caffe BLAS) and every tuned DNN library build on:
//
//	for jc over N in steps of gemmNC:          // B column block
//	  for pc over K in steps of gemmKC:        // depth block (fixed! see below)
//	    pack op(B)[pc:pc+KC, jc:jc+NC] into nr-wide micro-panels (bp)
//	    for ic over the row band in steps of gemmMC:
//	      pack op(A)[ic:ic+MC, pc:pc+KC] into mr-tall micro-panels (ap)
//	      for jr over NC in steps of nr:       // bp micro-panel stays in L1
//	        for ir over MC in steps of gemmMR:
//	          micro-kernel: register-tiled rank-KC update of a C tile
//
// Packing turns the strided (and possibly transposed) operand reads into
// two contiguous streams, so the micro-kernel reads exactly mr+nr floats
// per rank-1 step instead of the reference kernel's ~3 memory ops per 2
// flops, and the same packed B panel is reused by every row micro-panel
// of the block.
//
// Two micro-kernels exist. microKernelScalar4x4 is the portable pure-Go
// one: a 4x4 register tile (16 float32 accumulators + 8 temporaries,
// sized for the 16 XMM registers of amd64). On amd64 with AVX2+FMA, init
// (gemm_amd64.go) swaps in the 4x16 assembly kernel sgemmKernel4x16 and
// widens nr to 16: 8 YMM accumulators updated by two fused
// multiply-adds per broadcast A element, ~8x the scalar flop rate. The
// kernel choice is made once per process, never per call.
//
// Determinism contract (load-bearing — the coarse engine depends on it):
// the value written to C[i,j] must depend only on (i, j, the operands,
// alpha, beta, and the process-fixed blocking parameters), NEVER on which
// row band [rowLo, rowHi) the call computes or how that band is split
// into micro-tiles. This holds because
//
//   - each C element is accumulated in its own register lane, over l in
//     strictly increasing order within each KC block, and the KC blocking
//     of the K loop is a package constant independent of the band;
//   - partial edge tiles run the exact same micro-kernel on zero-padded
//     packed panels (x + a*0 == x for finite a), and the writeback loop
//     is the same code for full and partial tiles;
//   - the blocked-vs-reference dispatch (useBlockedGemm) looks only at
//     (n, k) and the process-fixed kernel's rule, which every band of the
//     same Gemm shares;
//   - N-blocking is invisible too: the lanes of a micro-tile are
//     independent, so which NC block, micro-panel or lane a column lands
//     in never changes its value. That is what lets the convolution
//     forward (gemm_im2col.go) run one GEMM over a whole band of
//     samples and still match the per-sample GEMMs bit for bit.
//
// Consequently Gemm, GemmRows on any band partition, and GemmParallel at
// any worker count all produce bit-identical C — the property
// TestGemmParallelMatchesSerial and the coarse engine's forward
// bit-identity tests pin down.
const (
	// gemmMR is the micro-tile height shared by both micro-kernels.
	gemmMR = 4
	// gemmNRMax bounds the micro-tile width across kernels; the
	// writeback accumulator buffer is sized for it.
	gemmNRMax = 16
	// gemmKC sizes the depth block: one packed B micro-panel is at most
	// gemmKC*gemmNRMax*4 = 16KiB and one packed A micro-panel 4KiB, so
	// the working set of the inner two loops stays inside a 32-48KiB
	// L1d. gemmKC is part of the determinism contract above — changing
	// it changes low-order bits of every large Gemm.
	gemmKC = 256
	// gemmMC rows of packed A per block: gemmMC*gemmKC*4 = 64KiB, L2
	// resident alongside the packed B block.
	gemmMC = 64
	// gemmNC columns of packed B per block: gemmNC*gemmKC*4 = 512KiB,
	// sized to sit in a (typical 1-2MiB) L2 next to the A block. All the
	// network shapes this repo emits have N <= 1024, so B is usually
	// packed exactly once per KC block.
	gemmNC = 512
)

// MicroTileRows is the blocked kernel's micro-tile height. Row bands of
// one GEMM cut on its multiples (par.Pool.ForTiles) run whole
// micro-tiles; the results are bit-identical at any cut.
const MicroTileRows = gemmMR

// gemmNR is the active micro-tile width, gemmMicroKernel the active
// micro-kernel and gemmBlockedRule its blocked-vs-reference dispatch; all
// three are selected once, at package init (see gemm_amd64.go), and never
// changed afterwards — see the determinism contract above. The kernel
// accumulates a gemmMR x gemmNR product tile into acc (row stride gemmNR)
// without touching C.
var (
	gemmNR          = 4
	gemmMicroKernel = microKernelScalar4x4
	gemmBlockedRule = scalarBlockedRule
)

// blockedRule is one micro-kernel's measured dispatch: the blocked path
// runs when n >= minN, k >= minK and n*k >= minNK. It sees only (n, k),
// never M or the row band (see useBlockedGemm).
type blockedRule struct{ minN, minK, minNK int }

func (r blockedRule) blocked(n, k int) bool {
	return n >= r.minN && k >= r.minK && n*k >= r.minNK
}

// The per-kernel rules, measured with BenchmarkGemmDispatchSweep.
//
//   - scalarBlockedRule: the portable 4x4 kernel does not beat gemmRef on
//     small shapes — packing costs as much as its register tile saves —
//     so it only takes shapes with n*k >= 4096.
//   - avx4x16BlockedRule: the 4x16 AVX2 kernel beats gemmRef at every
//     swept shape with n >= 4 and k >= 4 and M >= 10, by 1.4x to 22x; it
//     loses at k == 1 (and at M == 1, which the rule cannot see).
var (
	scalarBlockedRule  = blockedRule{minN: 4, minK: 8, minNK: 4096}
	avx4x16BlockedRule = blockedRule{minN: 4, minK: 4}
)

// GemmScratch holds the packing buffers of the blocked kernel so callers
// sitting in a hot loop (one Gemm per sample inside a coarse-grain batch
// band) can reuse them across calls instead of re-allocating. The zero
// value is ready to use; a GemmScratch must not be used from two
// goroutines at once.
type GemmScratch struct {
	ap []float32 // packed A block: up to gemmMC x gemmKC, mr-tall panels
	bp []float32 // packed B block: up to gemmKC x gemmNC, nr-wide panels
	// acc is the micro-kernel's accumulator tile. It lives here rather
	// than on gemmBlocked's stack because the kernel is invoked through
	// the gemmMicroKernel package variable (the AVX dispatch), which
	// defeats escape analysis and would heap-allocate the tile on every
	// call — one GC object per GEMM on the serving hot path.
	acc [gemmMR * gemmNRMax]float32
	// rows is the image packer's per-row address table (gemm_im2col.go),
	// kept here so packing one KC block does not zero a fresh one.
	rows [gemmKC]kernRow
}

func (s *GemmScratch) ensure(apLen, bpLen int) {
	if cap(s.ap) < apLen {
		//dnnlint:ignore hotalloc grow-once scratch, amortized across every later GEMM on this shape
		s.ap = make([]float32, apLen)
	}
	s.ap = s.ap[:cap(s.ap)]
	if cap(s.bp) < bpLen {
		//dnnlint:ignore hotalloc grow-once scratch, amortized across every later GEMM on this shape
		s.bp = make([]float32, bpLen)
	}
	s.bp = s.bp[:cap(s.bp)]
}

// scratchPool backs plain Gemm/GemmRows/GemmParallel calls that do not
// thread an explicit scratch; pooled storage makes repeated calls
// allocation-free after warm-up.
var scratchPool = sync.Pool{New: func() any { return new(GemmScratch) }}

// GetScratch hands out a packing-buffer scratch from the package pool.
// Callers that issue many Gemms back to back (per-sample lowered
// convolutions, banded inner products) should hold one for the whole loop
// and return it with PutScratch.
func GetScratch() *GemmScratch { return scratchPool.Get().(*GemmScratch) }

// PutScratch returns a scratch obtained from GetScratch to the pool.
func PutScratch(s *GemmScratch) { scratchPool.Put(s) }

// useBlockedGemm decides between the blocked kernel and gemmRef with the
// active kernel's measured rule. The decision deliberately ignores M:
// GemmRows/GemmParallel and the coarse engine split M into bands, and
// every band of one logical Gemm must take the same path for the results
// to be bit-identical across worker counts.
func useBlockedGemm(n, k int) bool { return gemmBlockedRule.blocked(n, k) }

// gemmScaleRows applies C = beta*C over the row band; used for the
// degenerate k == 0 / alpha == 0 cases where the main loops never touch C.
func gemmScaleRows(n int, beta float32, c []float32, ldc, rowLo, rowHi int) {
	for i := rowLo; i < rowHi; i++ {
		ci := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
	}
}

// gemmBlocked computes rows [rowLo, rowHi) of C = alpha*op(A)*op(B) +
// beta*C with the blocked/packed kernel. The caller has validated the
// arguments (checkGemm) and the dispatch predicate (useBlockedGemm).
func gemmBlocked(s *GemmScratch, transA, transB Transpose, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int, rowLo, rowHi int) {
	gemmBlockedOps(s, transA, n, k, alpha, a, lda, &bOperand{trans: transB, b: b, ldb: ldb},
		beta, &cOperand{c: c, ldc: ldc, segN: n}, rowLo, rowHi)
}

// bOperand is op(B) as the blocked kernel reads it: a stored row-major
// matrix (geom == nil), or images read through their im2col view
// (gemm_im2col.go), which is never materialized.
type bOperand struct {
	trans Transpose
	b     []float32
	ldb   int
	geom  *ConvGeom
}

// pack writes op(B)[pc:pc+kc, jc:jc+nc] into s.bp as nr-wide
// micro-panels.
func (o *bOperand) pack(s *GemmScratch, pc, kc, jc, nc int) {
	switch {
	case o.geom == nil:
		packB(s.bp, o.trans, o.b, o.ldb, pc, kc, jc, nc)
	case o.trans == NoTrans:
		packIm2col(s.bp, &s.rows, o.geom, o.b, pc, kc, jc, nc)
	default:
		packIm2colT(s.bp, o.geom, o.b, pc, kc, jc, nc)
	}
}

// cOperand is where the blocked kernel writes C. Its columns come in
// segments of segN: element (i, j) lives at
// c[(j/segN)*segStride + i*ldc + j%segN]. A plain matrix is a single
// segment; the band-batched convolution forward has one per sample.
type cOperand struct {
	c                    []float32
	ldc, segN, segStride int
}

// gemmBlockedOps is the blocked kernel over a general B source and C
// layout; gemmBlocked is its plain-matrix form.
func gemmBlockedOps(s *GemmScratch, transA Transpose, n, k int, alpha float32, a []float32, lda int, b *bOperand, beta float32, c *cOperand, rowLo, rowHi int) {
	if rowLo >= rowHi {
		return
	}
	if alpha == 0 || k == 0 {
		for seg := 0; seg*c.segN < n; seg++ {
			gemmScaleRows(min(c.segN, n-seg*c.segN), beta, c.c[seg*c.segStride:], c.ldc, rowLo, rowHi)
		}
		return
	}
	nr := gemmNR
	mcMax := gemmMC
	if band := rowHi - rowLo; band < mcMax {
		mcMax = band
	}
	ncMax := gemmNC
	if n < ncMax {
		ncMax = n
	}
	kcMax := gemmKC
	if k < kcMax {
		kcMax = k
	}
	s.ensure(roundUp(mcMax, gemmMR)*kcMax, roundUp(ncMax, nr)*kcMax)
	acc := s.acc[:]
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			firstK := pc == 0
			b.pack(s, pc, kc, jc, nc)
			for ic := rowLo; ic < rowHi; ic += gemmMC {
				mc := min(gemmMC, rowHi-ic)
				packA(s.ap, transA, a, lda, ic, mc, pc, kc)
				for jr := 0; jr < nc; jr += nr {
					nrr := min(nr, nc-jr)
					bpPanel := s.bp[(jr/nr)*kc*nr:]
					seg, col := (jc+jr)/c.segN, (jc+jr)%c.segN
					for ir := 0; ir < mc; ir += gemmMR {
						mrr := min(gemmMR, mc-ir)
						apPanel := s.ap[(ir/gemmMR)*kc*gemmMR:]
						gemmMicroKernel(apPanel, bpPanel, kc, &s.acc)
						c.writeback(acc, nr, alpha, beta, firstK, ic+ir, seg, col, mrr, nrr)
					}
				}
			}
		}
	}
}

// writeback folds the micro-tile for rows [i, i+mrr) and nrr columns
// starting at column col of segment seg, in one piece per segment the
// tile touches: a tile that straddles a sample boundary of the batched
// convolution forward is written back in two (or, for segments narrower
// than nr, more) pieces.
func (c *cOperand) writeback(acc []float32, nr int, alpha, beta float32, firstK bool, i, seg, col, mrr, nrr int) {
	for done := 0; done < nrr; seg, col = seg+1, 0 {
		w := min(nrr-done, c.segN-col)
		writebackTile(acc[done:], nr, alpha, beta, firstK, c.c[seg*c.segStride+i*c.ldc+col:], c.ldc, mrr, w)
		done += w
	}
}

// writebackTile folds one accumulated micro-tile into C:
// C = beta*C + alpha*acc on the first KC block, C += alpha*acc on the
// rest. mrr/nrr clip edge tiles; acc rows are nr wide. This is the only
// code that writes C on the blocked path, shared by every micro-kernel,
// which keeps edge and full tiles bit-identical.
func writebackTile(acc []float32, nr int, alpha, beta float32, firstK bool, c []float32, ldc, mrr, nrr int) {
	for i := 0; i < mrr; i++ {
		ci := c[i*ldc : i*ldc+nrr]
		ai := acc[i*nr : i*nr+nrr]
		switch {
		case !firstK:
			for j := range ci {
				ci[j] += alpha * ai[j]
			}
		case beta == 0:
			// beta == 0 must not read C (it may hold garbage/NaN).
			for j := range ci {
				ci[j] = alpha * ai[j]
			}
		default:
			for j := range ci {
				ci[j] = beta*ci[j] + alpha*ai[j]
			}
		}
	}
}

// packA copies op(A)[ic:ic+mc, pc:pc+kc] into mr-tall micro-panels:
// panel p holds rows [p*mr, p*mr+mr) as kc groups of mr contiguous
// values, zero-padded when the block has fewer than mr rows left. The
// zero padding is what lets edge tiles share the full micro-kernel. Full
// panels, all but at most the last, copy each group of mr in one
// bounds-checked step.
func packA(dst []float32, transA Transpose, a []float32, lda, ic, mc, pc, kc int) {
	idx := 0
	for ir := 0; ir < mc; ir += gemmMR {
		rows := min(gemmMR, mc-ir)
		switch {
		case rows == gemmMR && transA == NoTrans:
			r0 := a[(ic+ir)*lda+pc : (ic+ir)*lda+pc+kc]
			r1 := a[(ic+ir+1)*lda+pc : (ic+ir+1)*lda+pc+kc]
			r2 := a[(ic+ir+2)*lda+pc : (ic+ir+2)*lda+pc+kc]
			r3 := a[(ic+ir+3)*lda+pc : (ic+ir+3)*lda+pc+kc]
			for l := range r0 {
				d := dst[idx : idx+gemmMR : idx+gemmMR]
				d[0], d[1], d[2], d[3] = r0[l], r1[l], r2[l], r3[l]
				idx += gemmMR
			}
		case rows == gemmMR:
			// op(A)[i, l] = A[l, i]: row pc+l of the stored matrix is
			// contiguous over i, so each group is one 4-wide copy.
			for l := 0; l < kc; l++ {
				src := a[(pc+l)*lda+ic+ir : (pc+l)*lda+ic+ir+gemmMR : (pc+l)*lda+ic+ir+gemmMR]
				d := dst[idx : idx+gemmMR : idx+gemmMR]
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
				idx += gemmMR
			}
		default:
			for l := 0; l < kc; l++ {
				for i := 0; i < gemmMR; i++ {
					dst[idx] = 0
					if i < rows {
						dst[idx] = opA(transA, a, lda, ic+ir+i, pc+l)
					}
					idx++
				}
			}
		}
	}
}

// opA reads op(A)[i, l].
func opA(transA Transpose, a []float32, lda, i, l int) float32 {
	if transA == NoTrans {
		return a[i*lda+l]
	}
	return a[l*lda+i]
}

// packB copies op(B)[pc:pc+kc, jc:jc+nc] into nr-wide micro-panels:
// panel p holds columns [p*nr, p*nr+nr) as kc groups of nr contiguous
// values, zero-padded on the right edge.
func packB(dst []float32, transB Transpose, b []float32, ldb, pc, kc, jc, nc int) {
	nr := gemmNR
	idx := 0
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		if transB == NoTrans {
			for l := 0; l < kc; l++ {
				src := b[(pc+l)*ldb+jc+jr:]
				for j := 0; j < cols; j++ {
					dst[idx] = src[j]
					idx++
				}
				for j := cols; j < nr; j++ {
					dst[idx] = 0
					idx++
				}
			}
		} else {
			// op(B)[l, j] = B[j, l]: column panels of op(B) are rows of
			// the stored matrix, read with stride ldb.
			base := (jc + jr) * ldb
			for l := 0; l < kc; l++ {
				col := base + pc + l
				for j := 0; j < cols; j++ {
					dst[idx] = b[col+j*ldb]
					idx++
				}
				for j := cols; j < nr; j++ {
					dst[idx] = 0
					idx++
				}
			}
		}
	}
}

// microKernelScalar4x4 is the portable micro-kernel: a rank-kc update of
// a 4x4 tile held in 16 register accumulators, 8 contiguous float32
// loads per 32 flops. acc receives the tile with row stride gemmNR (4
// here — the scalar kernel is only active when gemmNR == 4).
func microKernelScalar4x4(ap, bp []float32, kc int, acc *[gemmMR * gemmNRMax]float32) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	ap = ap[: 4*kc : 4*kc]
	bp = bp[: 4*kc : 4*kc]
	for l := 0; l < kc; l++ {
		al := ap[4*l : 4*l+4 : 4*l+4]
		bl := bp[4*l : 4*l+4 : 4*l+4]
		a0, a1, a2, a3 := al[0], al[1], al[2], al[3]
		b0, b1, b2, b3 := bl[0], bl[1], bl[2], bl[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }
