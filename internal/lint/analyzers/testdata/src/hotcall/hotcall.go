// Package hotcall exercises hotalloc's interprocedural extension: the
// v1 engine only saw make/append/new/fmt literally inside the hot loop,
// so an allocation tucked into a helper passed clean. These must now
// flag through the call, at any summary depth, while waived helper
// sites stay exempt.
package hotcall

import "fmt"

// scratch allocates a fresh buffer per call.
func scratch(n int) []float32 {
	return make([]float32, n)
}

// deepScratch buries the allocation a second call down.
func deepScratch(n int) []float32 {
	return scratch(n)
}

// describe formats per call (fmt allocates and boxes its operands).
func describe(i int) string {
	return fmt.Sprintf("step %d", i)
}

// grow appends within capacity pre-sized by the caller; the waiver
// keeps the amortized append out of caller summaries.
func grow(buf []float32, v float32) []float32 {
	//dnnlint:ignore hotalloc amortized growth within caller-pre-sized capacity
	return append(buf, v)
}

// axpy is allocation-free: calling it in a hot loop is fine.
func axpy(dst, src []float32, a float32) {
	for i := range dst {
		dst[i] += a * src[i]
	}
}

func Forward(in, out []float32) {
	for i := range out {
		buf := scratch(len(in))     // want `call to scratch in a loop of hot function Forward allocates per iteration \(make at hotcall\.go`
		tmp := deepScratch(len(in)) // want `call to deepScratch in a loop of hot function Forward allocates per iteration .* 2 call\(s\) deep`
		_ = describe(i)             // want `call to describe in a loop of hot function Forward allocates per iteration \(fmt\.Sprintf`
		out[i] = buf[0] + tmp[0]
	}
}

func backwardPass(in, out []float32) {
	buf := make([]float32, len(in)) // hoisted: allocation outside the loop is fine
	for i := range out {
		axpy(out, in, 2)        // allocation-free helper: must not flag
		buf = grow(buf, in[i])  // waived amortized growth: must not flag
		out[i] = buf[i%len(in)] // arithmetic only
	}
}

// checkShapes panics on misuse; allocations on the panic path are cold
// even when reached through a helper call in a hot loop.
func checkShapes(a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("hotcall: mismatched shapes %d vs %d", len(a), len(b)))
	}
}

func gemmTile(a, b, c []float32) {
	for i := range c {
		checkShapes(a, b) // cold-path alloc under panic: must not flag
		c[i] = a[i] * b[i]
	}
}

// packPanel stands in for an image packer that builds its panel per
// call instead of writing into the caller's scratch.
func packPanel(n int) []float32 {
	return make([]float32, n)
}

// packPanelInto is the scratch-fed packer: allocation-free.
func packPanelInto(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// GemmIm2col is hot by name, like blas's image-packed convolution GEMM:
// the packer it calls once per KC block is checked through the call.
func GemmIm2col(k int, scratch, c []float32) {
	for pc := 0; pc < k; pc += 4 {
		bp := packPanel(16) // want `call to packPanel in a loop of hot function GemmIm2col allocates per iteration \(make at hotcall\.go`
		packPanelInto(scratch, bp[0])
		c[pc%len(c)] += scratch[0]
	}
}
