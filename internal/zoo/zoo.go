// Package zoo builds the two benchmark networks of the paper's evaluation
// exactly as shipped with Caffe: the LeNet MNIST classifier (9 layers,
// Figure 3 top) and the CIFAR-10-full CNN (14 layers, Figure 3 bottom),
// plus their Caffe solver configurations. Resolve is the one place a
// network name or prototxt path becomes its dataset, batch, solver and
// builder; adding a network means adding it to the tables in model.go.
package zoo

import (
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/solver"
)

// Options configures a network build.
type Options struct {
	// BatchSize defaults to the Caffe training value (64 MNIST, 100 CIFAR).
	BatchSize int
	// Seed drives weight initialization; equal seeds give bit-identical
	// initial parameters.
	Seed uint64
	// Accuracy appends an Accuracy layer next to the loss.
	Accuracy bool
	// DirectConv selects the direct loop nest of the paper's Algorithm 2
	// for every convolution instead of the default im2col+GEMM lowering
	// (Caffe's CPU path). The paper-figure harness sets it.
	DirectConv bool
	// Deprecated: LoweredConv is ignored. Lowered convolution is the
	// default; set DirectConv for the loop nest.
	LoweredConv bool
}

// LeNet builds the MNIST network of §2.2.1: data, conv1(20,5x5), pool1(MAX
// 2/2), conv2(50,5x5), pool2(MAX 2/2), ip1(500), relu1, ip2(10), loss —
// the layer inventory of the paper's Figure 3 and the per-layer series of
// Figures 4-6.
func LeNet(src layers.Source, opt Options) ([]net.LayerSpec, error) {
	if opt.BatchSize == 0 {
		opt.BatchSize = 64
	}
	r := rng.New(opt.Seed, 100)
	dataL, err := layers.NewData("mnist", src, opt.BatchSize)
	if err != nil {
		return nil, err
	}
	conv1, err := layers.NewConvolution("conv1", layers.ConvConfig{
		NumOutput: 20, Kernel: 5, Stride: 1, Direct: opt.DirectConv,
		WeightFiller: layers.XavierFiller{}, RNG: r.Split(1),
	})
	if err != nil {
		return nil, err
	}
	pool1, err := layers.NewPooling("pool1", layers.PoolConfig{Method: layers.MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		return nil, err
	}
	conv2, err := layers.NewConvolution("conv2", layers.ConvConfig{
		NumOutput: 50, Kernel: 5, Stride: 1, Direct: opt.DirectConv,
		WeightFiller: layers.XavierFiller{}, RNG: r.Split(2),
	})
	if err != nil {
		return nil, err
	}
	pool2, err := layers.NewPooling("pool2", layers.PoolConfig{Method: layers.MaxPool, Kernel: 2, Stride: 2})
	if err != nil {
		return nil, err
	}
	ip1, err := layers.NewInnerProduct("ip1", layers.IPConfig{
		NumOutput: 500, WeightFiller: layers.XavierFiller{}, RNG: r.Split(3),
	})
	if err != nil {
		return nil, err
	}
	ip2, err := layers.NewInnerProduct("ip2", layers.IPConfig{
		NumOutput: src.Classes(), WeightFiller: layers.XavierFiller{}, RNG: r.Split(4),
	})
	if err != nil {
		return nil, err
	}
	specs := []net.LayerSpec{
		{Layer: dataL, Tops: []string{"data", "label"}},
		{Layer: conv1, Bottoms: []string{"data"}, Tops: []string{"conv1"}},
		{Layer: pool1, Bottoms: []string{"conv1"}, Tops: []string{"pool1"}},
		{Layer: conv2, Bottoms: []string{"pool1"}, Tops: []string{"conv2"}},
		{Layer: pool2, Bottoms: []string{"conv2"}, Tops: []string{"pool2"}},
		{Layer: ip1, Bottoms: []string{"pool2"}, Tops: []string{"ip1"}},
		{Layer: layers.NewReLU("relu1", 0), Bottoms: []string{"ip1"}, Tops: []string{"relu1"}},
		{Layer: ip2, Bottoms: []string{"relu1"}, Tops: []string{"ip2"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip2", "label"}, Tops: []string{"loss"}},
	}
	if opt.Accuracy {
		specs = append(specs, net.LayerSpec{
			Layer: layers.NewAccuracy("accuracy", 1), Bottoms: []string{"ip2", "label"}, Tops: []string{"accuracy"},
		})
	}
	return specs, nil
}

// LeNetSolver returns the Caffe lenet_solver.prototxt hyperparameters:
// SGD, base_lr 0.01, momentum 0.9, weight_decay 5e-4, inv policy with
// gamma 1e-4 and power 0.75.
func LeNetSolver() solver.Config {
	return solver.Config{
		Type: solver.SGD, BaseLR: 0.01, Momentum: 0.9, WeightDecay: 0.0005,
		LRPolicy: "inv", Gamma: 0.0001, Power: 0.75,
	}
}

// CIFARFull builds the CIFAR-10 network of §2.2.1, organized in the three
// levels the paper's §4.2.1 analyses:
//
//	level 1: conv1(32,5x5,pad2) pool1(MAX 3/2) relu1 norm1(LRN)
//	level 2: conv2(32,5x5,pad2) relu2 pool2(AVE 3/2) norm2(LRN)
//	level 3: conv3(64,5x5,pad2) relu3 pool3(AVE 3/2)
//
// followed by ip1(10) and the softmax loss — 14 layers including data.
func CIFARFull(src layers.Source, opt Options) ([]net.LayerSpec, error) {
	if opt.BatchSize == 0 {
		opt.BatchSize = 100
	}
	r := rng.New(opt.Seed, 200)
	dataL, err := layers.NewData("cifar", src, opt.BatchSize)
	if err != nil {
		return nil, err
	}
	newConv := func(name string, out int, std float32, stream uint64) (*layers.Convolution, error) {
		return layers.NewConvolution(name, layers.ConvConfig{
			NumOutput: out, Kernel: 5, Pad: 2, Stride: 1, Direct: opt.DirectConv,
			WeightFiller: layers.GaussianFiller{Std: std}, RNG: r.Split(stream),
		})
	}
	conv1, err := newConv("conv1", 32, 0.0001, 1)
	if err != nil {
		return nil, err
	}
	conv2, err := newConv("conv2", 32, 0.01, 2)
	if err != nil {
		return nil, err
	}
	conv3, err := newConv("conv3", 64, 0.01, 3)
	if err != nil {
		return nil, err
	}
	pool1, err := layers.NewPooling("pool1", layers.PoolConfig{Method: layers.MaxPool, Kernel: 3, Stride: 2})
	if err != nil {
		return nil, err
	}
	pool2, err := layers.NewPooling("pool2", layers.PoolConfig{Method: layers.AvePool, Kernel: 3, Stride: 2})
	if err != nil {
		return nil, err
	}
	pool3, err := layers.NewPooling("pool3", layers.PoolConfig{Method: layers.AvePool, Kernel: 3, Stride: 2})
	if err != nil {
		return nil, err
	}
	lrnCfg := layers.LRNConfig{LocalSize: 3, Alpha: 5e-5, Beta: 0.75}
	norm1, err := layers.NewLRN("norm1", lrnCfg)
	if err != nil {
		return nil, err
	}
	norm2, err := layers.NewLRN("norm2", lrnCfg)
	if err != nil {
		return nil, err
	}
	ip1, err := layers.NewInnerProduct("ip1", layers.IPConfig{
		NumOutput: src.Classes(), WeightFiller: layers.GaussianFiller{Std: 0.01}, RNG: r.Split(4),
	})
	if err != nil {
		return nil, err
	}
	specs := []net.LayerSpec{
		{Layer: dataL, Tops: []string{"data", "label"}},
		{Layer: conv1, Bottoms: []string{"data"}, Tops: []string{"conv1"}},
		{Layer: pool1, Bottoms: []string{"conv1"}, Tops: []string{"pool1"}},
		{Layer: layers.NewReLU("relu1", 0), Bottoms: []string{"pool1"}, Tops: []string{"relu1"}},
		{Layer: norm1, Bottoms: []string{"relu1"}, Tops: []string{"norm1"}},
		{Layer: conv2, Bottoms: []string{"norm1"}, Tops: []string{"conv2"}},
		{Layer: layers.NewReLU("relu2", 0), Bottoms: []string{"conv2"}, Tops: []string{"relu2"}},
		{Layer: pool2, Bottoms: []string{"relu2"}, Tops: []string{"pool2"}},
		{Layer: norm2, Bottoms: []string{"pool2"}, Tops: []string{"norm2"}},
		{Layer: conv3, Bottoms: []string{"norm2"}, Tops: []string{"conv3"}},
		{Layer: layers.NewReLU("relu3", 0), Bottoms: []string{"conv3"}, Tops: []string{"relu3"}},
		{Layer: pool3, Bottoms: []string{"relu3"}, Tops: []string{"pool3"}},
		{Layer: ip1, Bottoms: []string{"pool3"}, Tops: []string{"ip1"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip1", "label"}, Tops: []string{"loss"}},
	}
	if opt.Accuracy {
		specs = append(specs, net.LayerSpec{
			Layer: layers.NewAccuracy("accuracy", 1), Bottoms: []string{"ip1", "label"}, Tops: []string{"accuracy"},
		})
	}
	return specs, nil
}

// CIFARFullSolver returns the Caffe cifar10_full_solver.prototxt
// hyperparameters: SGD, base_lr 0.001, momentum 0.9, weight_decay 0.004,
// fixed policy.
func CIFARFullSolver() solver.Config {
	return solver.Config{
		Type: solver.SGD, BaseLR: 0.001, Momentum: 0.9, WeightDecay: 0.004,
		LRPolicy: "fixed",
	}
}
