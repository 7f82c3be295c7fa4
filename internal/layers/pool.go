package layers

import (
	"fmt"
	"math"

	"coarsegrain/internal/blas"
	"coarsegrain/internal/blob"
	"coarsegrain/internal/par"
)

// PoolMethod selects the pooling operation.
type PoolMethod int

const (
	// MaxPool takes the maximum of each window (Caffe MAX).
	MaxPool PoolMethod = iota
	// AvePool takes the mean of each window (Caffe AVE).
	AvePool
)

// String implements fmt.Stringer.
func (m PoolMethod) String() string {
	if m == MaxPool {
		return "MAX"
	}
	return "AVE"
}

// PoolConfig configures a Pooling layer.
type PoolConfig struct {
	Method           PoolMethod
	Kernel           int
	KernelH, KernelW int
	Pad              int
	PadH, PadW       int
	Stride           int
	StrideH, StrideW int
}

func (c *PoolConfig) normalize() error {
	if c.KernelH == 0 {
		c.KernelH = c.Kernel
	}
	if c.KernelW == 0 {
		c.KernelW = c.Kernel
	}
	if c.KernelH <= 0 || c.KernelW <= 0 {
		return fmt.Errorf("pooling: kernel size must be positive, got %dx%d", c.KernelH, c.KernelW)
	}
	if c.PadH == 0 {
		c.PadH = c.Pad
	}
	if c.PadW == 0 {
		c.PadW = c.Pad
	}
	if c.StrideH == 0 {
		c.StrideH = c.Stride
	}
	if c.StrideW == 0 {
		c.StrideW = c.Stride
	}
	if c.StrideH == 0 {
		c.StrideH = 1
	}
	if c.StrideW == 0 {
		c.StrideW = 1
	}
	return nil
}

// Pooling performs spatial dimensionality reduction (§2.2.1). Each
// (sample, channel) plane is independent, so both passes coalesce the two
// outermost loops into an S*C iteration space — the finest race-free
// granularity, matching the paper's observation that pooling layers keep
// the same data-thread distribution as the convolutions they follow.
type Pooling struct {
	base
	cfg PoolConfig

	num, channels, height, width int
	outH, outW                   int

	// mask records, for MAX pooling, the flat input index (within the
	// (s,c) plane) of each output's maximum, for the backward scatter.
	mask []int32

	propagateDown bool
}

// NewPooling creates a pooling layer.
func NewPooling(name string, cfg PoolConfig) (*Pooling, error) {
	if err := cfg.normalize(); err != nil {
		return nil, fmt.Errorf("layer %s: %w", name, err)
	}
	return &Pooling{base: base{name: name, typ: "Pooling"}, cfg: cfg, propagateDown: true}, nil
}

// SetPropagateDown implements the optional propagation control.
func (l *Pooling) SetPropagateDown(flags []bool) {
	if len(flags) > 0 {
		l.propagateDown = flags[0]
	}
}

// SetUp implements Layer.
func (l *Pooling) SetUp(bottom, top []*blob.Blob) error {
	if err := checkBottomTop(l, bottom, top, 1, 1); err != nil {
		return err
	}
	if bottom[0].AxisCount() != 4 {
		return fmt.Errorf("layer %s: pooling needs a 4-D bottom, got %v", l.name, bottom[0].Shape())
	}
	l.Reshape(bottom, top)
	return nil
}

// Reshape implements Layer.
func (l *Pooling) Reshape(bottom, top []*blob.Blob) {
	b := bottom[0]
	l.num, l.channels, l.height, l.width = b.Num(), b.Channels(), b.Height(), b.Width()
	l.outH = blas.PoolOutSize(l.height, l.cfg.KernelH, l.cfg.PadH, l.cfg.StrideH)
	l.outW = blas.PoolOutSize(l.width, l.cfg.KernelW, l.cfg.PadW, l.cfg.StrideW)
	top[0].Reshape(l.num, l.channels, l.outH, l.outW)
	if l.cfg.Method == MaxPool {
		n := l.num * l.channels * l.outH * l.outW
		if cap(l.mask) < n {
			l.mask = make([]int32, n)
		}
		l.mask = l.mask[:n]
	}
}

// ForwardExtent implements Layer: one iteration per (sample, channel)
// plane.
func (l *Pooling) ForwardExtent() int { return l.num * l.channels }

// ForwardRange implements Layer.
func (l *Pooling) ForwardRange(lo, hi int, bottom, top []*blob.Blob) {
	for civ := lo; civ < hi; civ++ {
		l.forwardPlane(civ, bottom[0], top[0])
	}
}

// forwardPlane pools one (s,c) plane. plane is the flattened (s*C + c).
func (l *Pooling) forwardPlane(plane int, bottom, top *blob.Blob) {
	in := bottom.Data()[plane*l.height*l.width : (plane+1)*l.height*l.width]
	out := top.Data()[plane*l.outH*l.outW : (plane+1)*l.outH*l.outW]
	if l.cfg.Method == MaxPool {
		l.maxPlane(in, out, l.mask[plane*l.outH*l.outW:(plane+1)*l.outH*l.outW])
		return
	}
	for oh := 0; oh < l.outH; oh++ {
		hs, he, hp := l.window(oh, l.cfg.StrideH, l.cfg.PadH, l.cfg.KernelH, l.height)
		for ow := 0; ow < l.outW; ow++ {
			ws, we, wp := l.window(ow, l.cfg.StrideW, l.cfg.PadW, l.cfg.KernelW, l.width)
			var sum float32
			for ih := hs; ih < he; ih++ {
				for _, v := range in[ih*l.width+ws : ih*l.width+we] {
					sum += v
				}
			}
			out[oh*l.outW+ow] = sum / float32(hp*wp)
		}
	}
}

// window returns, for output position o along one axis, the input range
// [start, end) the pooling window covers (empty for a window wholly in
// the padding) and the divisor extent of a
// Caffe AVE window: the window clipped to the padded input, so a
// ceil-mode window overhanging the input divides by fewer elements
// (Caffe PoolingLayer: pool_size from min(start+kernel, in+pad) before
// clipping to the input).
func (l *Pooling) window(o, stride, pad, kernel, in int) (start, end, extent int) {
	start = o*stride - pad
	end = min(start+kernel, in+pad)
	extent = end - start
	start = max(start, 0)
	return start, max(min(end, in), start), extent
}

// maxPlane is MAX pooling over one plane. The argmax update is
// branch-free: the v > best test only selects which bits and index carry
// forward (a conditional move), because a data-dependent branch there
// mispredicts on every other element. The semantics are the plain
// "if v > best" loop's: the first maximum wins ties, a NaN is never
// selected, and an all-NaN or empty window gives -Inf with mask -1.
func (l *Pooling) maxPlane(in, out []float32, mask []int32) {
	negInf := math.Float32bits(float32(math.Inf(-1)))
	for oh := 0; oh < l.outH; oh++ {
		hs, he, _ := l.window(oh, l.cfg.StrideH, l.cfg.PadH, l.cfg.KernelH, l.height)
		for ow := 0; ow < l.outW; ow++ {
			ws, we, _ := l.window(ow, l.cfg.StrideW, l.cfg.PadW, l.cfg.KernelW, l.width)
			bestBits, bestIdx := negInf, int32(-1)
			for ih := hs; ih < he; ih++ {
				row := in[ih*l.width+ws : ih*l.width+we]
				for t, v := range row {
					vBits, idx := math.Float32bits(v), int32(ih*l.width+ws+t)
					if v > math.Float32frombits(bestBits) {
						bestBits, bestIdx = vBits, idx
					}
				}
			}
			out[oh*l.outW+ow] = math.Float32frombits(bestBits)
			mask[oh*l.outW+ow] = bestIdx
		}
	}
}

// BackwardExtent implements Layer: same (sample, channel) granularity —
// each plane's input gradient is private to its iteration.
func (l *Pooling) BackwardExtent() int {
	if !l.propagateDown {
		return 0
	}
	return l.num * l.channels
}

// BackwardRange implements Layer. Pooling has no parameters; paramGrads is
// empty.
func (l *Pooling) BackwardRange(lo, hi int, bottom, top []*blob.Blob, _ []*blob.Blob) {
	for civ := lo; civ < hi; civ++ {
		l.backwardPlane(civ, bottom[0], top[0])
	}
}

func (l *Pooling) backwardPlane(plane int, bottom, top *blob.Blob) {
	inDiff := bottom.Diff()[plane*l.height*l.width : (plane+1)*l.height*l.width]
	outDiff := top.Diff()[plane*l.outH*l.outW:]
	for i := range inDiff {
		inDiff[i] = 0
	}
	switch l.cfg.Method {
	case MaxPool:
		mask := l.mask[plane*l.outH*l.outW:]
		for oidx := 0; oidx < l.outH*l.outW; oidx++ {
			if m := mask[oidx]; m >= 0 {
				inDiff[m] += outDiff[oidx]
			}
		}
	case AvePool:
		for oh := 0; oh < l.outH; oh++ {
			hs, he, hp := l.window(oh, l.cfg.StrideH, l.cfg.PadH, l.cfg.KernelH, l.height)
			for ow := 0; ow < l.outW; ow++ {
				ws, we, wp := l.window(ow, l.cfg.StrideW, l.cfg.PadW, l.cfg.KernelW, l.width)
				g := outDiff[oh*l.outW+ow] / float32(hp*wp)
				for ih := hs; ih < he; ih++ {
					row := inDiff[ih*l.width+ws : ih*l.width+we]
					for i := range row {
						row[i] += g
					}
				}
			}
		}
	}
}

// ForwardFine implements FineForwarder: pooling planes are tiny independent
// kernels, the case where the paper reports extraordinary plain-GPU
// speedups; the fine path simply splits the plane loop across the pool.
func (l *Pooling) ForwardFine(p *par.Pool, bottom, top []*blob.Blob) {
	p.For(l.num*l.channels, func(lo, hi, _ int) {
		for plane := lo; plane < hi; plane++ {
			l.forwardPlane(plane, bottom[0], top[0])
		}
	})
}

// BackwardFine implements FineBackwarder.
func (l *Pooling) BackwardFine(p *par.Pool, bottom, top []*blob.Blob) {
	if !l.propagateDown {
		return
	}
	p.For(l.num*l.channels, func(lo, hi, _ int) {
		for plane := lo; plane < hi; plane++ {
			l.backwardPlane(plane, bottom[0], top[0])
		}
	})
}
