package zoo

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"coarsegrain/internal/net"
)

var (
	lenetProto = filepath.Join("..", "..", "configs", "lenet.prototxt")
	cifarProto = filepath.Join("..", "..", "configs", "cifar10_full.prototxt")
)

// TestResolve pins the model-family facts every command reads: each zoo
// alias, prototxt paths with and without "cifar", the dataset override
// and the -model-wins precedence.
func TestResolve(t *testing.T) {
	for _, c := range []struct {
		zoo, model, dataset string
		wantDataset         string
		wantBatch           int
		wantSolver          string // "lenet" or "cifar"
		wantScores          string // "" for prototxt nets
		wantShape           []int  // nil for prototxt nets
	}{
		{"lenet", "", "", "mnist", 64, "lenet", "ip2", []int{1, 28, 28}},
		{"mnist", "", "", "mnist", 64, "lenet", "ip2", []int{1, 28, 28}},
		{"cifar", "", "", "cifar", 100, "cifar", "ip1", []int{3, 32, 32}},
		{"cifar10", "", "", "cifar", 100, "cifar", "ip1", []int{3, 32, 32}},
		{"cifar10-full", "", "", "cifar", 100, "cifar", "ip1", []int{3, 32, 32}},
		{"", lenetProto, "", "mnist", 64, "lenet", "", nil},
		{"", cifarProto, "", "cifar", 100, "cifar", "", nil},
		{"lenet", "", "cifar", "cifar", 100, "cifar", "ip2", []int{3, 32, 32}},
		{"cifar10-full", "", "mnist", "mnist", 64, "lenet", "ip1", []int{1, 28, 28}},
		{"", cifarProto, "mnist", "mnist", 64, "lenet", "", nil},
		{"lenet", cifarProto, "", "cifar", 100, "cifar", "", nil}, // -model wins
	} {
		name := fmt.Sprintf("zoo=%q model=%q dataset=%q", c.zoo, c.model, c.dataset)
		m, err := Resolve(c.zoo, c.model, c.dataset)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantSolver := LeNetSolver()
		if c.wantSolver == "cifar" {
			wantSolver = CIFARFullSolver()
		}
		wantName, wantClasses := c.model, 0
		if c.model == "" {
			wantName, wantClasses = c.zoo, 10
		}
		if m.Name != wantName || m.Dataset != c.wantDataset || m.Batch != c.wantBatch ||
			!reflect.DeepEqual(m.Solver, wantSolver) || m.ScoreBlob != c.wantScores ||
			!reflect.DeepEqual(m.SampleShape, c.wantShape) || m.Classes != wantClasses {
			t.Errorf("%s: got name %q dataset %q batch %d solver %+v scores %q shape %v classes %d",
				name, m.Name, m.Dataset, m.Batch, m.Solver, m.ScoreBlob, m.SampleShape, m.Classes)
		}

		// The model builds over its own source, and the batch argument
		// reaches the data layer of zoo and prototxt nets alike.
		src, real := m.Source("", 8, 1)
		if real || src.Len() != 8 {
			t.Fatalf("%s: source real=%v len %d, want 8 synthetic samples", name, real, src.Len())
		}
		specs, err := m.Build(src, 4, 1, true)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		n, err := net.New(specs, nil)
		if err != nil {
			t.Fatalf("%s: net: %v", name, err)
		}
		shape := n.Blob("data").Shape()
		if shape[0] != 4 || (c.wantShape != nil && !reflect.DeepEqual(shape[1:], c.wantShape)) {
			t.Errorf("%s: data blob %v, want batch 4 of %v", name, shape, c.wantShape)
		}
		if _, err := n.Output("accuracy"); (err == nil) != (c.model == "") {
			t.Errorf("%s: accuracy output err=%v; zoo nets append one, prototxt nets declare their own", name, err)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	for _, c := range []struct{ zoo, model, dataset, want string }{
		{"", "", "", "need -model or -zoo"},
		{"alexnet", "", "", `unknown network "alexnet"`},
		{"lenet", "", "imagenet", `unknown dataset "imagenet"`},
		{"", filepath.Join(t.TempDir(), "missing.prototxt"), "", "missing.prototxt"},
	} {
		m, err := Resolve(c.zoo, c.model, c.dataset)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Resolve(%q, %q, %q) = %v, %v; want error containing %q", c.zoo, c.model, c.dataset, m, err, c.want)
		}
	}
}

// TestResolveShapeNotShared guards the dataset table: a caller editing
// its SampleShape must not change the next Resolve.
func TestResolveShapeNotShared(t *testing.T) {
	a, _ := Resolve("lenet", "", "")
	a.SampleShape[0] = 99
	b, _ := Resolve("lenet", "", "")
	if b.SampleShape[0] != 1 {
		t.Fatalf("shape leaked between Resolve calls: %v", b.SampleShape)
	}
}
