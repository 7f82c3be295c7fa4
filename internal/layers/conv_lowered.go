package layers

import (
	"sync"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
	"coarsegrain/internal/par"
)

// The lowered convolution path: im2col + GEMM per sample, which is what
// Caffe's CPU convolution actually does, and the default implementation
// of every engine. The direct loop nest in conv.go models the
// "research-stage" code the paper's introduction motivates; it stays as
// the test oracle and the paper-figure kernel (ConvConfig.Direct).
//
// Inside a coarse-grain parallel region every worker lowers its own
// samples, so each needs a private column buffer — exactly the "object
// privatization" step of Algorithm 4 (line 2). The buffers come from a
// sync.Pool, which gives per-worker reuse without the layer knowing the
// team size.

// colBuf wraps one pooled buffer. The pool stores these pointers rather
// than []float32 values: boxing a slice header into the pool's
// interface would allocate on every put, which the serving path's
// zero-alloc steady state (SERVING.md) cannot afford.
type colBuf struct{ data []float32 }

// colBuffers hands out column/scratch buffers of at least n floats.
type colBuffers struct{ pool sync.Pool }

func (c *colBuffers) get(n int) *colBuf {
	b, _ := c.pool.Get().(*colBuf)
	if b == nil {
		b = &colBuf{}
	}
	if cap(b.data) < n {
		b.data = make([]float32, n)
	}
	b.data = b.data[:n]
	return b
}

func (c *colBuffers) put(b *colBuf) { c.pool.Put(b) }

// gemmCall is the GEMM a lowered pass issues: GemmWithScratch on a
// worker's private packing scratch for the sequential/coarse engines
// (scratchGemm), or GemmParallel on the pool for the tuned
// (cuDNN-analogue) engine, which walks samples serially and splits each
// GEMM's rows instead (poolGemm). Both inline, so the closures stay on
// the stack.
type gemmCall func(transA, transB blas.Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int)

func scratchGemm(gs *blas.GemmScratch) gemmCall {
	return func(ta, tb blas.Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
		blas.GemmWithScratch(gs, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	}
}

func poolGemm(p *par.Pool) gemmCall {
	return func(ta, tb blas.Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
		blas.GemmParallel(p, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	}
}

// forwardLoweredRange computes samples [lo, hi) via im2col+GEMM. One
// GemmScratch serves the whole band: the packed-panel buffers of the
// blocked kernel are reused sample to sample (the GEMM shape is constant
// across the band), exactly like the column buffer.
func (l *Convolution) forwardLoweredRange(lo, hi int, bottom, top *blob.Blob) {
	cb := l.cols.get(l.colLen())
	defer l.cols.put(cb)
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	l.forwardLowered(lo, hi, bottom, top, cb.data, scratchGemm(gs))
}

// backwardLoweredRange computes gradients for samples [lo, hi), each
// worker with private column buffers and packing scratch. Parameter
// gradients accumulate into the (possibly privatized) paramGrads blobs.
func (l *Convolution) backwardLoweredRange(lo, hi int, bottom, top *blob.Blob, paramGrads []*blob.Blob) {
	cb := l.cols.get(l.colLen())
	defer l.cols.put(cb)
	dcb := l.cols.get(l.colLen())
	defer l.cols.put(dcb)
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	l.backwardLowered(lo, hi, bottom, top, paramGrads, cb.data, dcb.data, scratchGemm(gs))
}

// colLen is the length of one sample's column matrix, CKK x OHW.
func (l *Convolution) colLen() int {
	return l.channels * l.cfg.KernelH * l.cfg.KernelW * l.outH * l.outW
}

// forwardLowered is the per-sample body shared by both lowered engines:
// im2col, then W (O x CKK) * col (CKK x OHW) through gemm, then the bias.
func (l *Convolution) forwardLowered(lo, hi int, bottom, top *blob.Blob, col []float32, gemm gemmCall) {
	o := l.cfg.NumOutput
	ckk := l.channels * l.cfg.KernelH * l.cfg.KernelW
	ohw := l.outH * l.outW
	chw := l.channels * l.height * l.width
	w := l.params[0].Data()
	for s := lo; s < hi; s++ {
		im := bottom.Data()[s*chw:]
		blas.Im2col(im, l.channels, l.height, l.width, l.cfg.KernelH, l.cfg.KernelW,
			l.cfg.PadH, l.cfg.PadW, l.cfg.StrideH, l.cfg.StrideW, col)
		out := top.Data()[s*o*ohw : (s+1)*o*ohw]
		gemm(blas.NoTrans, blas.NoTrans, o, ohw, ckk, 1, w, ckk, col, ohw, 0, out, ohw)
		if !l.cfg.NoBias {
			bias := l.params[1].Data()
			for oc := 0; oc < o; oc++ {
				blas.AddScalar(out[oc*ohw:(oc+1)*ohw], bias[oc])
			}
		}
	}
}

// backwardLowered is the per-sample backward body shared by both lowered
// engines: dW += dTop·colᵀ, the bias sum, dcol = Wᵀ·dTop, then col2im
// scatters dcol into the bottom gradient.
func (l *Convolution) backwardLowered(lo, hi int, bottom, top *blob.Blob, paramGrads []*blob.Blob, col, dcol []float32, gemm gemmCall) {
	o := l.cfg.NumOutput
	ckk := l.channels * l.cfg.KernelH * l.cfg.KernelW
	ohw := l.outH * l.outW
	chw := l.channels * l.height * l.width
	w := l.params[0].Data()
	wGrad := paramGrads[0].Diff()
	var bGrad []float32
	if !l.cfg.NoBias {
		bGrad = paramGrads[1].Diff()
	}
	for s := lo; s < hi; s++ {
		im := bottom.Data()[s*chw:]
		outDiff := top.Diff()[s*o*ohw : (s+1)*o*ohw]
		blas.Im2col(im, l.channels, l.height, l.width, l.cfg.KernelH, l.cfg.KernelW,
			l.cfg.PadH, l.cfg.PadW, l.cfg.StrideH, l.cfg.StrideW, col)
		gemm(blas.NoTrans, blas.Trans, o, ckk, ohw, 1, outDiff, ohw, col, ohw, 1, wGrad, ckk)
		if bGrad != nil {
			for oc := 0; oc < o; oc++ {
				var sum float32
				for _, v := range outDiff[oc*ohw : (oc+1)*ohw] {
					sum += v
				}
				bGrad[oc] += sum
			}
		}
		if !l.propagateDown {
			continue
		}
		gemm(blas.Trans, blas.NoTrans, ckk, ohw, o, 1, w, ckk, outDiff, ohw, 0, dcol, ohw)
		inDiff := bottom.Diff()[s*chw : (s+1)*chw]
		for i := range inDiff {
			inDiff[i] = 0
		}
		blas.Col2im(dcol, l.channels, l.height, l.width, l.cfg.KernelH, l.cfg.KernelW,
			l.cfg.PadH, l.cfg.PadW, l.cfg.StrideH, l.cfg.StrideW, inDiff)
	}
}
