package main

import (
	"sort"
	"time"

	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/trace"
)

// spanKey identifies a family of driver spans.
type spanKey struct {
	name  string
	phase trace.Phase
}

// spanTotal aggregates one family of driver spans.
type spanTotal struct {
	count int
	dur   time.Duration // summed span durations
	self  time.Duration // summed self time: duration minus nested driver spans
	flops int64
}

// driverTotals sums the driver-shard spans of a snapshot by (name,
// phase). A span's self time is its duration minus the part of it that
// driver spans nested inside it cover; worker-shard spans run
// concurrently with the driver and are not children.
func driverTotals(spans []trace.Span) map[spanKey]*spanTotal {
	var drv []trace.Span
	for _, s := range spans {
		if s.Rank == trace.RankDriver {
			drv = append(drv, s)
		}
	}
	// Parents first: earlier start, then longer duration.
	sort.SliceStable(drv, func(i, j int) bool {
		if drv[i].Start != drv[j].Start {
			return drv[i].Start < drv[j].Start
		}
		return drv[i].Dur > drv[j].Dur
	})
	self := make([]time.Duration, len(drv))
	var stack []int
	for i, s := range drv {
		self[i] = s.Dur
		for len(stack) > 0 && drv[stack[len(stack)-1]].End() <= s.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			covered := s.Dur
			if e := drv[parent].End(); s.End() > e {
				covered = e - s.Start
			}
			self[parent] -= covered
		}
		stack = append(stack, i)
	}
	out := make(map[spanKey]*spanTotal)
	for i, s := range drv {
		k := spanKey{s.Name, s.Phase}
		t := out[k]
		if t == nil {
			t = &spanTotal{}
			out[k] = t
		}
		t.count++
		t.dur += s.Dur
		t.self += self[i]
		t.flops += s.FLOPs
	}
	return out
}

// layerKeys maps each layer's span name to its metric key: the layer
// name, or "data" for the Data layer.
func layerKeys(n *net.Net) map[string]string {
	keys := make(map[string]string)
	for _, l := range n.Layers() {
		if _, ok := l.(*layers.Data); ok {
			keys[l.Name()] = "data"
			continue
		}
		keys[l.Name()] = l.Name()
	}
	return keys
}

// addLayerMetrics fills layers.<l>.{fwd,bwd}_us (self time per
// operation) and layers.<l>.{fwd,bwd}_gflops (span FLOPs over self
// time) from the driver spans of ops operations.
func addLayerMetrics(m map[string]float64, tot map[spanKey]*spanTotal, keys map[string]string, ops int) {
	if ops < 1 {
		return
	}
	for name, key := range keys {
		for _, ph := range []struct {
			phase trace.Phase
			tag   string
		}{{trace.PhaseForward, "fwd"}, {trace.PhaseBackward, "bwd"}} {
			t := tot[spanKey{name, ph.phase}]
			if t == nil {
				continue
			}
			m["layers."+key+"."+ph.tag+"_us"] = us(t.self) / float64(ops)
			if t.flops > 0 && t.self > 0 {
				m["layers."+key+"."+ph.tag+"_gflops"] = float64(t.flops) / t.self.Seconds() / 1e9
			}
		}
	}
}

// phaseTotal sums the durations of all driver spans of one phase.
func phaseTotal(tot map[spanKey]*spanTotal, phase trace.Phase) time.Duration {
	var d time.Duration
	for k, t := range tot {
		if k.phase == phase {
			d += t.dur
		}
	}
	return d
}

// overheadPct is the traced p50 relative to the untraced p50, in
// percent.
func overheadPct(untraced, traced []float64) float64 {
	return (median(traced)/median(untraced) - 1) * 100
}
