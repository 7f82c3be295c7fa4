package profile

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestAddAndStats(t *testing.T) {
	r := NewRecorder()
	r.Add("conv1", Forward, 10*time.Microsecond)
	r.Add("conv1", Forward, 30*time.Microsecond)
	r.Add("conv1", Backward, 100*time.Microsecond)
	s := r.Stat("conv1", Forward)
	if s.Count != 2 || s.Total != 40*time.Microsecond {
		t.Fatalf("stat %+v", s)
	}
	if s.Min != 10*time.Microsecond || s.Max != 30*time.Microsecond {
		t.Fatalf("min/max %+v", s)
	}
	if r.Mean("conv1", Forward) != 20*time.Microsecond {
		t.Fatalf("mean %v", r.Mean("conv1", Forward))
	}
	if r.Mean("conv1", Backward) != 100*time.Microsecond {
		t.Fatal("backward mean wrong")
	}
}

func TestMissingIsZero(t *testing.T) {
	r := NewRecorder()
	if r.Mean("nope", Forward) != 0 {
		t.Fatal("missing layer should be zero")
	}
	if s := r.Stat("nope", Backward); s.Count != 0 {
		t.Fatal("missing stat should be zero value")
	}
	if (Stat{}).Mean() != 0 {
		t.Fatal("zero stat mean should be 0")
	}
}

func TestLayerOrderIsFirstSeen(t *testing.T) {
	r := NewRecorder()
	r.Add("b", Forward, time.Microsecond)
	r.Add("a", Forward, time.Microsecond)
	r.Add("b", Backward, time.Microsecond)
	got := r.Layers()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("order %v", got)
	}
}

func TestTotalMean(t *testing.T) {
	r := NewRecorder()
	r.Add("a", Forward, 10*time.Microsecond)
	r.Add("a", Backward, 20*time.Microsecond)
	r.Add("b", Forward, 5*time.Microsecond)
	if r.TotalMean() != 35*time.Microsecond {
		t.Fatalf("total %v", r.TotalMean())
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder()
	r.Add("a", Forward, time.Microsecond)
	r.Reset()
	if len(r.Layers()) != 0 || r.TotalMean() != 0 {
		t.Fatal("reset incomplete")
	}
	// Re-adding after a reset re-establishes first-seen order from
	// scratch (the membership index must be cleared too).
	r.Add("z", Forward, time.Microsecond)
	r.Add("a", Forward, time.Microsecond)
	if got := r.Layers(); len(got) != 2 || got[0] != "z" || got[1] != "a" {
		t.Fatalf("order after reset %v", got)
	}
}

// TestManyLayersFirstSeenOrder covers the membership-map path that
// replaced the linear first-seen scan: order stays stable and duplicate
// names are never re-appended, regardless of layer count.
func TestManyLayersFirstSeenOrder(t *testing.T) {
	r := NewRecorder()
	const n = 500
	for i := 0; i < n; i++ {
		name := "layer" + string(rune('a'+i%26)) + fmt.Sprint(i)
		r.Add(name, Forward, time.Microsecond)
		r.Add(name, Backward, time.Microsecond) // same layer, other phase
	}
	if got := len(r.Layers()); got != n {
		t.Fatalf("got %d layers, want %d", got, n)
	}
	if r.Layers()[0] != "layera0" || r.Layers()[n-1] != "layer"+string(rune('a'+(n-1)%26))+fmt.Sprint(n-1) {
		t.Fatalf("order endpoints wrong: %v ... %v", r.Layers()[0], r.Layers()[n-1])
	}
}

func TestTableContainsLayersAndWeights(t *testing.T) {
	r := NewRecorder()
	r.Add("conv1", Forward, 75*time.Microsecond)
	r.Add("conv1", Backward, 0)
	r.Add("loss", Forward, 25*time.Microsecond)
	tbl := r.Table()
	for _, want := range []string{"conv1", "loss", "75.0", "TOTAL"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	if !strings.Contains(tbl, "75.0%") {
		t.Fatalf("relative weight missing:\n%s", tbl)
	}
}

func TestSortedLayersByCost(t *testing.T) {
	r := NewRecorder()
	r.Add("small", Forward, time.Microsecond)
	r.Add("big", Forward, 100*time.Microsecond)
	r.Add("mid", Backward, 10*time.Microsecond)
	got := r.SortedLayersByCost()
	if got[0] != "big" || got[1] != "mid" || got[2] != "small" {
		t.Fatalf("sorted %v", got)
	}
}

func TestPhaseString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Fatal("phase strings wrong")
	}
}

// TestDominatingLayers pins cost order (not name order), the inclusive
// frac boundary and the empty result for a recorder with no time.
func TestDominatingLayers(t *testing.T) {
	r := NewRecorder()
	r.Add("a-cheap", Forward, 20*time.Microsecond)
	r.Add("z-costly", Forward, 30*time.Microsecond)
	r.Add("z-costly", Backward, 20*time.Microsecond)
	r.Add("m-mid", Backward, 30*time.Microsecond)
	for _, c := range []struct {
		frac float64
		want string
	}{
		{0.5, "[z-costly]"},
		{0.8, "[z-costly m-mid]"}, // 50+30 of 100 reaches 0.8 exactly
		{0.81, "[z-costly m-mid a-cheap]"},
		{1, "[z-costly m-mid a-cheap]"},
	} {
		if got := fmt.Sprint(r.DominatingLayers(c.frac)); got != c.want {
			t.Errorf("DominatingLayers(%v) = %s, want %s", c.frac, got, c.want)
		}
	}
	empty := NewRecorder()
	empty.Add("idle", Forward, 0)
	if got := empty.DominatingLayers(0.8); got != nil {
		t.Fatalf("zero total: got %v, want nil", got)
	}
}
