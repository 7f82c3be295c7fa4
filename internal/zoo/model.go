package zoo

import (
	"fmt"
	"os"
	"strings"

	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/prototxt"
	"coarsegrain/internal/solver"
)

// dataset holds what a data stream fixes for every net it feeds: where
// the samples come from, their shape and class count, and the Caffe
// training defaults of the benchmark built on it.
type dataset struct {
	load    func(dir string, n int, seed uint64) (layers.Source, bool)
	shape   []int
	classes int
	batch   int
	solver  func() solver.Config
}

var datasets = map[string]dataset{
	"mnist": {load: data.LoadMNIST, shape: []int{1, 28, 28}, classes: 10, batch: 64, solver: LeNetSolver},
	"cifar": {load: data.LoadCIFAR10, shape: []int{3, 32, 32}, classes: 10, batch: 100, solver: CIFARFullSolver},
}

// family is one zoo network: its builder and the blob holding its class
// scores.
type family struct {
	build     func(layers.Source, Options) ([]net.LayerSpec, error)
	scoreBlob string
}

// families is the alias table: every name Build and Resolve accept.
var families = map[string]family{
	"lenet":        {LeNet, "ip2"},
	"mnist":        {LeNet, "ip2"},
	"cifar":        {CIFARFull, "ip1"},
	"cifar10":      {CIFARFull, "ip1"},
	"cifar10-full": {CIFARFull, "ip1"},
}

func lookup(name string) (family, error) {
	f, ok := families[name]
	if !ok {
		return family{}, fmt.Errorf("zoo: unknown network %q (have lenet, cifar10-full)", name)
	}
	return f, nil
}

// Build is a convenience that constructs one of the named zoo networks.
func Build(name string, src layers.Source, opt Options) ([]net.LayerSpec, error) {
	f, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return f.build(src, opt)
}

// Model is a resolved network: a zoo net or a prototxt file, with the
// facts every command needs to feed, build, train and serve it.
type Model struct {
	// Name is the zoo name or prototxt path as given.
	Name string
	// Dataset is "mnist" or "cifar".
	Dataset string
	// Batch is the Caffe training batch for Dataset (64 MNIST, 100 CIFAR).
	Batch int
	// Solver is the Caffe solver for Dataset.
	Solver solver.Config

	// ScoreBlob, SampleShape and Classes describe a zoo net's
	// predictions; they are zero for prototxt nets.
	ScoreBlob   string
	SampleShape []int
	Classes     int

	load  func(dir string, n int, seed uint64) (layers.Source, bool)
	build func(layers.Source, Options) ([]net.LayerSpec, error)
	proto string
}

// Resolve names a network the way every command's -zoo, -model and
// -dataset flags do. A set modelPath wins over zooName; the prototxt is
// read once, here. An empty dataset is inferred: "cifar" when zooName or
// modelPath mentions cifar, "mnist" otherwise.
func Resolve(zooName, modelPath, datasetName string) (*Model, error) {
	if datasetName == "" {
		datasetName = "mnist"
		if strings.Contains(zooName+modelPath, "cifar") {
			datasetName = "cifar"
		}
	}
	ds, ok := datasets[datasetName]
	if !ok {
		return nil, fmt.Errorf("zoo: unknown dataset %q (have mnist, cifar)", datasetName)
	}
	m := &Model{Dataset: datasetName, Batch: ds.batch, Solver: ds.solver(), load: ds.load}
	switch {
	case modelPath != "":
		raw, err := os.ReadFile(modelPath)
		if err != nil {
			return nil, err
		}
		m.Name, m.proto = modelPath, string(raw)
	case zooName != "":
		f, err := lookup(zooName)
		if err != nil {
			return nil, err
		}
		m.Name, m.build, m.ScoreBlob = zooName, f.build, f.scoreBlob
		m.SampleShape, m.Classes = append([]int(nil), ds.shape...), ds.classes
	default:
		return nil, fmt.Errorf("need -model or -zoo")
	}
	return m, nil
}

// Source returns the model's data: the real dataset files under dir when
// present (reported by the bool), and n synthetic samples otherwise.
func (m *Model) Source(dir string, n int, seed uint64) (layers.Source, bool) {
	return m.load(dir, n, seed)
}

// Build constructs the layer specs over src. A zero batch keeps the
// net's own batch (the zoo default or the prototxt's batch_size).
// accuracy appends an Accuracy layer to zoo nets; a prototxt declares
// its own.
func (m *Model) Build(src layers.Source, batch int, seed uint64, accuracy bool) ([]net.LayerSpec, error) {
	if m.build != nil {
		return m.build(src, Options{BatchSize: batch, Seed: seed, Accuracy: accuracy})
	}
	return prototxt.ParseNet(m.proto, prototxt.BuildOptions{Source: src, Seed: seed, BatchOverride: batch})
}
