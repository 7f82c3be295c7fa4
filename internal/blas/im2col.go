package blas

// Im2col lowers a (channels, height, width) image into a column matrix so
// that a convolution becomes a single Gemm, the standard lowering used by
// Caffe's convolutional layers.
//
// The output col has shape
//
//	(channels*kernelH*kernelW) x (outH*outW)
//
// stored row-major, where outH = (height + 2*padH - kernelH)/strideH + 1 and
// similarly for outW. Elements read from the padding region are zero.
//
// The convolution layers never call it: GemmIm2col and GemmIm2colT read
// the same matrix straight from the image into the GEMM's packed panels.
// It stays as their test oracle and as the adjoint partner of Col2im.
func Im2col(im []float32, channels, height, width, kernelH, kernelW, padH, padW, strideH, strideW int, col []float32) {
	outH := ConvOutSize(height, kernelH, padH, strideH)
	outW := ConvOutSize(width, kernelW, padW, strideW)
	idx := 0
	for c := 0; c < channels; c++ {
		chIm := im[c*height*width:]
		for kh := 0; kh < kernelH; kh++ {
			ohLo, ohHi := validRange(outH, height, kh, padH, strideH)
			for kw := 0; kw < kernelW; kw++ {
				owLo, owHi := validRange(outW, width, kw, padW, strideW)
				for oh := 0; oh < outH; oh++ {
					row := col[idx : idx+outW]
					idx += outW
					if oh < ohLo || oh >= ohHi || owLo == owHi {
						clear(row)
						continue
					}
					clear(row[:owLo])
					clear(row[owHi:])
					out := row[owLo:owHi]
					src := chIm[(oh*strideH-padH+kh)*width+owLo*strideW-padW+kw:]
					if strideW == 1 {
						copy(out, src)
						continue
					}
					for t := range out {
						out[t] = src[t*strideW]
					}
				}
			}
		}
	}
}

// Col2im is the adjoint of Im2col: it scatters (accumulating) the column
// matrix back into an image. Used by the convolution backward pass to
// build the gradient with respect to the layer input. Each column-matrix
// row adds into one image-row segment, clipped against the padding once;
// the visiting order, and so the add order at every pixel, is Im2col's.
//
// The destination image is NOT zeroed first; callers accumulate into a
// zeroed (or privatized) buffer.
func Col2im(col []float32, channels, height, width, kernelH, kernelW, padH, padW, strideH, strideW int, im []float32) {
	outH := ConvOutSize(height, kernelH, padH, strideH)
	outW := ConvOutSize(width, kernelW, padW, strideW)
	idx := 0
	for c := 0; c < channels; c++ {
		chIm := im[c*height*width:]
		for kh := 0; kh < kernelH; kh++ {
			ohLo, ohHi := validRange(outH, height, kh, padH, strideH)
			for kw := 0; kw < kernelW; kw++ {
				owLo, owHi := validRange(outW, width, kw, padW, strideW)
				if owLo == owHi {
					idx += outH * outW
					continue
				}
				idx += ohLo * outW
				for oh := ohLo; oh < ohHi; oh++ {
					in := col[idx+owLo : idx+owHi]
					idx += outW
					dst := chIm[(oh*strideH-padH+kh)*width+owLo*strideW-padW+kw:]
					if strideW == 1 {
						dst = dst[:len(in)]
						for t, v := range in {
							dst[t] += v
						}
						continue
					}
					for t, v := range in {
						dst[t*strideW] += v
					}
				}
				idx += (outH - ohHi) * outW
			}
		}
	}
}

// ConvOutSize returns the output spatial extent of a convolution/pooling
// window sweep: (in + 2*pad - kernel)/stride + 1.
func ConvOutSize(in, kernel, pad, stride int) int {
	return (in+2*pad-kernel)/stride + 1
}

// PoolOutSize returns the output extent of a Caffe pooling sweep, which
// uses ceil division and then clips windows that start beyond the padded
// input (Caffe PoolingLayer::Reshape semantics).
func PoolOutSize(in, kernel, pad, stride int) int {
	out := (in+2*pad-kernel+stride-1)/stride + 1
	if pad > 0 {
		// The last pooling window must start strictly inside the padded input.
		if (out-1)*stride >= in+pad {
			out--
		}
	}
	return out
}
