package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"coarsegrain/internal/data"
)

func TestBuildConfigDefaultsAndOverrides(t *testing.T) {
	lenetProto := filepath.Join("..", "..", "configs", "lenet.prototxt")
	for _, c := range []struct {
		zoo, model, scores, shape string
		classes                   int
		want                      string // Model ScoreBlob SampleShape Classes
	}{
		{"lenet", "", "", "", 0, "lenet ip2 [1 28 28] 10"},
		{"cifar10-full", "", "", "", 0, "cifar10-full ip1 [3 32 32] 10"},
		{"lenet", "", "ip1", "1,32,32", 5, "lenet ip1 [1 32 32] 5"},
		{"", lenetProto, "ip2", "1,28,28", 10, lenetProto + " ip2 [1 28 28] 10"},
		{"cifar10-full", lenetProto, "ip2", "1,28,28", 10, lenetProto + " ip2 [1 28 28] 10"}, // -model wins
	} {
		cfg, err := buildConfig(c.zoo, c.model, c.scores, c.shape, c.classes, 1)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if got := fmt.Sprint(cfg.Model, " ", cfg.ScoreBlob, " ", cfg.SampleShape, " ", cfg.Classes); got != c.want {
			t.Errorf("%+v: got %q, want %q", c, got, c.want)
		}
		specs, err := cfg.Build(data.NewSyntheticMNIST(8, 1))
		if err != nil || len(specs) == 0 {
			t.Errorf("%+v: Build = %d specs, %v", c, len(specs), err)
		}
	}
}

func TestBuildConfigErrors(t *testing.T) {
	lenetProto := filepath.Join("..", "..", "configs", "lenet.prototxt")
	for _, c := range []struct {
		zoo, model, scores, shape string
		classes                   int
		want                      string
	}{
		{"", "", "", "", 0, "need -model or -zoo"},
		{"alexnet", "", "", "", 0, "unknown network"},
		{"", lenetProto, "ip2", "", 10, "need -shape"},
		{"", lenetProto, "ip2", "1,28,28", 0, "need -classes"},
		{"", lenetProto, "", "1,28,28", 10, "need -scores"},
		{"lenet", "", "", "1,x,28", 0, "bad -shape"},
	} {
		_, err := buildConfig(c.zoo, c.model, c.scores, c.shape, c.classes, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want error containing %q", c, err, c.want)
		}
	}
}
