// Package profile implements the per-layer timing instrumentation behind
// the paper's evaluation methodology: every figure in §4 is built from
// per-layer forward/backward execution times under different thread
// counts. A Recorder accumulates wall-clock durations per (layer, phase)
// and reports means over the recorded iterations.
//
// The span-based tracer (package trace) subsumes this aggregate view —
// trace.LayerRecorder folds a span snapshot back into a Recorder, so the
// table format rendered here remains the one canonical per-layer report
// (see OBSERVABILITY.md for when to reach for which instrument).
package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phase distinguishes the two passes of a layer.
type Phase int

const (
	// Forward is the forward pass.
	Forward Phase = iota
	// Backward is the backward pass.
	Backward
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p == Forward {
		return "forward"
	}
	return "backward"
}

type key struct {
	layer string
	phase Phase
}

// Stat aggregates the durations recorded for one (layer, phase).
type Stat struct {
	Count    int
	Total    time.Duration
	Min, Max time.Duration
}

// Mean returns the average duration (0 when nothing was recorded).
func (s Stat) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Recorder accumulates per-layer, per-phase timings. It is not safe for
// concurrent use; the net records on the training goroutine only.
type Recorder struct {
	stats map[key]*Stat
	order []string            // layer names in first-seen order
	seen  map[string]struct{} // membership index over order
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{stats: make(map[key]*Stat), seen: make(map[string]struct{})}
}

// Add records one duration.
func (r *Recorder) Add(layer string, phase Phase, d time.Duration) {
	k := key{layer, phase}
	s, ok := r.stats[k]
	if !ok {
		s = &Stat{Min: d, Max: d}
		r.stats[k] = s
		if _, dup := r.seen[layer]; !dup {
			r.seen[layer] = struct{}{}
			//dnnlint:ignore hotalloc first-sight registration, bounded by layer count; steady state never reaches here
			r.order = append(r.order, layer)
		}
	}
	s.Count++
	s.Total += d
	if d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
}

// Reset discards all recorded data.
func (r *Recorder) Reset() {
	r.stats = make(map[key]*Stat)
	r.order = r.order[:0]
	r.seen = make(map[string]struct{})
}

// Layers returns layer names in first-seen (network) order.
func (r *Recorder) Layers() []string { return r.order }

// Stat returns the aggregate for (layer, phase); the zero Stat if absent.
func (r *Recorder) Stat(layer string, phase Phase) Stat {
	if s, ok := r.stats[key{layer, phase}]; ok {
		return *s
	}
	return Stat{}
}

// Mean returns the mean duration for (layer, phase).
func (r *Recorder) Mean(layer string, phase Phase) time.Duration {
	return r.Stat(layer, phase).Mean()
}

// TotalMean returns the sum over all layers and phases of mean durations —
// the mean cost of one full training iteration.
func (r *Recorder) TotalMean() time.Duration {
	var t time.Duration
	for _, l := range r.order {
		t += r.Mean(l, Forward) + r.Mean(l, Backward)
	}
	return t
}

// Table renders a fixed-width per-layer table of mean microseconds, in the
// style of the paper's Figures 4 and 7 (absolute layer times plus relative
// weight of the total).
func (r *Recorder) Table() string {
	var b strings.Builder
	total := r.TotalMean()
	fmt.Fprintf(&b, "%-12s %14s %14s %8s\n", "layer", "fwd (us)", "bwd (us)", "weight")
	for _, l := range r.order {
		f := r.Mean(l, Forward)
		w := r.Mean(l, Backward)
		rel := 0.0
		if total > 0 {
			rel = float64(f+w) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-12s %14.1f %14.1f %7.1f%%\n",
			l, float64(f.Microseconds()), float64(w.Microseconds()), rel)
	}
	fmt.Fprintf(&b, "%-12s %14s %14s\n", "TOTAL", fmt.Sprintf("%.1f", float64(total.Microseconds())), "")
	return b.String()
}

// SortedLayersByCost returns layer names sorted by descending mean
// forward+backward cost — used to find the dominating layers (the paper's
// observation that conv+pool account for ~80% of the time).
func (r *Recorder) SortedLayersByCost() []string {
	out := append([]string(nil), r.order...)
	sort.SliceStable(out, func(i, j int) bool {
		ci := r.Mean(out[i], Forward) + r.Mean(out[i], Backward)
		cj := r.Mean(out[j], Forward) + r.Mean(out[j], Backward)
		return ci > cj
	})
	return out
}

// DominatingLayers returns the most expensive layers, most expensive
// first, up to the first at which their summed mean cost reaches frac of
// TotalMean — the paper's observation that conv+pool account for ~80% of
// the time. A recorder with no recorded time has no dominating layers.
func (r *Recorder) DominatingLayers(frac float64) []string {
	total := float64(r.TotalMean())
	if total == 0 {
		return nil
	}
	var out []string
	var acc float64
	for _, l := range r.SortedLayersByCost() {
		out = append(out, l)
		acc += float64(r.Mean(l, Forward) + r.Mean(l, Backward))
		if acc/total >= frac {
			break
		}
	}
	return out
}
