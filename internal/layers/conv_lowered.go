package layers

import (
	"sync"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
	"coarsegrain/internal/par"
)

// The lowered convolution path, the default implementation of every
// engine: convolution as GEMM over the im2col view of the input, what
// Caffe's CPU convolution does — but implicit, as cuDNN does it. The
// GEMM packs its B panels straight from the image (blas.GemmIm2col,
// blas.GemmIm2colT), so neither the forward pass nor the weight gradient
// builds a column matrix. The direct loop nest in conv.go models the
// "research-stage" code the paper's introduction motivates; it stays as
// the test oracle and the paper-figure kernel (ConvConfig.Direct).
//
// The forward pass runs one GEMM per band of samples, W · im2col(band);
// the weight gradient runs one GEMM per sample, accumulating into dW
// (folding samples into K would change the summation order). Only the
// backward-data pass still materializes a matrix, dcol = Wᵀ·dTop, which
// col2im scatters into the bottom gradient. Inside a coarse-grain
// parallel region every worker needs its own dcol buffer — the "object
// privatization" step of Algorithm 4 (line 2) — drawn from a sync.Pool,
// which gives per-worker reuse without the layer knowing the team size.

// colBuf wraps one pooled buffer. The pool stores these pointers rather
// than []float32 values: boxing a slice header into the pool's
// interface would allocate on every put.
type colBuf struct{ data []float32 }

// colBuffers hands out column buffers of at least n floats.
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

// forwardLoweredRange computes samples [lo, hi) as one image-packed GEMM
// on the worker's private packing scratch.
func (l *Convolution) forwardLoweredRange(lo, hi int, bottom, top *blob.Blob) {
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	l.forwardLowered(gs, lo, hi, 0, l.cfg.NumOutput, bottom, top)
}

// backwardLoweredRange computes gradients for samples [lo, hi) with a
// private packing scratch and, when the bottom gradient is wanted, a
// private dcol buffer. Parameter gradients accumulate into the (possibly
// privatized) paramGrads blobs.
func (l *Convolution) backwardLoweredRange(lo, hi int, bottom, top *blob.Blob, paramGrads []*blob.Blob) {
	gs := blas.GetScratch()
	defer blas.PutScratch(gs)
	var dcol []float32
	if l.propagateDown {
		b := l.dcols.get(l.geom.ColRows() * l.geom.ColCols())
		defer l.dcols.put(b)
		dcol = b.data
	}
	l.backwardLowered(gs, nil, lo, hi, bottom, top, paramGrads, dcol)
}

// forwardLowered is the forward body shared by both lowered engines:
// rows [rowLo, rowHi) of top = W · im2col(bottom) + bias for samples
// [lo, hi), as one GEMM over the band. The coarse engines pass their
// worker's scratch and all rows; the tuned engine splits the rows across
// its pool, each band borrowing pooled scratch (gs == nil).
func (l *Convolution) forwardLowered(gs *blas.GemmScratch, lo, hi, rowLo, rowHi int, bottom, top *blob.Blob) {
	o := l.cfg.NumOutput
	ohw := l.outH * l.outW
	chw := l.geom.ImageLen()
	out := top.Data()[lo*o*ohw : hi*o*ohw]
	blas.GemmIm2col(gs, &l.geom, hi-lo, o, 1, l.params[0].Data(), l.geom.ColRows(),
		bottom.Data()[lo*chw:hi*chw], 0, out, rowLo, rowHi)
	if l.cfg.NoBias {
		return
	}
	bias := l.params[1].Data()
	for s := 0; s < hi-lo; s++ {
		for oc := rowLo; oc < rowHi; oc++ {
			blas.AddScalar(out[(s*o+oc)*ohw:(s*o+oc+1)*ohw], bias[oc])
		}
	}
}

// backwardLowered is the per-sample backward body shared by both lowered
// engines: dW += dTop·im2col(x)ᵀ, the bias sum, then (when propagating)
// dcol = Wᵀ·dTop and col2im into the bottom gradient. With a nil pool
// every GEMM runs on the caller with scratch gs (sequential and coarse
// engines); the tuned engine passes its pool and each GEMM's rows are
// split across it.
func (l *Convolution) backwardLowered(gs *blas.GemmScratch, p *par.Pool, lo, hi int, bottom, top *blob.Blob, paramGrads []*blob.Blob, dcol []float32) {
	o := l.cfg.NumOutput
	ckk := l.geom.ColRows()
	ohw := l.outH * l.outW
	chw := l.geom.ImageLen()
	w := l.params[0].Data()
	wGrad := paramGrads[0].Diff()
	var bGrad []float32
	if !l.cfg.NoBias {
		bGrad = paramGrads[1].Diff()
	}
	for s := lo; s < hi; s++ {
		im := bottom.Data()[s*chw : (s+1)*chw]
		outDiff := top.Diff()[s*o*ohw : (s+1)*o*ohw]
		if p == nil {
			blas.GemmIm2colT(gs, &l.geom, o, 1, outDiff, ohw, im, 1, wGrad, ckk, 0, o)
		} else {
			p.ForTiles(o, blas.MicroTileRows, func(rlo, rhi, _ int) {
				blas.GemmIm2colT(nil, &l.geom, o, 1, outDiff, ohw, im, 1, wGrad, ckk, rlo, rhi)
			})
		}
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
		if p == nil {
			blas.GemmWithScratch(gs, blas.Trans, blas.NoTrans, ckk, ohw, o, 1, w, ckk, outDiff, ohw, 0, dcol, ohw)
		} else {
			blas.GemmParallel(p, blas.Trans, blas.NoTrans, ckk, ohw, o, 1, w, ckk, outDiff, ohw, 0, dcol, ohw)
		}
		inDiff := bottom.Diff()[s*chw : (s+1)*chw]
		for i := range inDiff {
			inDiff[i] = 0
		}
		blas.Col2im(dcol, l.channels, l.height, l.width, l.cfg.KernelH, l.cfg.KernelW,
			l.cfg.PadH, l.cfg.PadW, l.cfg.StrideH, l.cfg.StrideW, inDiff)
	}
}
