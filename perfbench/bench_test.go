package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"coarsegrain/internal/serve"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/transport"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndCaps(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-] or longer than 64", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("end-to-end metric %s: bound %g exceeds setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if endToEnd[0].Name != mSetup || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", endToEnd[0])
	}
}

// Every per-layer metric names what it should move and where it should
// not: the interaction record a later change is judged against.
func TestPerLayerMapping(t *testing.T) {
	for _, m := range perLayer {
		if m.Moves == "" || m.NoChange == "" {
			t.Errorf("per-layer metric %s lacks its end-to-end mapping (moves %q, no change %q)", m.Name, m.Moves, m.NoChange)
		}
	}
}

// BENCHMARK.json at the repository root is what the benchmark is run
// and judged by; it must list exactly the catalogue.
func TestCatalogueMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var man struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: manifest %+v, catalogue %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound) {
				t.Errorf("%s %s: manifest bound %v, catalogue %g", kind, w.Name, g.Bound, w.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, w.Name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark runs %d", len(man.Workloads), len(workloads))
	}
	for _, w := range man.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("manifest workload %q is not implemented", w.Name)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n := 1; n <= 20000; n++ {
		p := tailPercentile(n)
		if p == 0 {
			if n-1-rankIndex(50, n) >= minBeyond {
				t.Fatalf("n=%d: no tail chosen although p50 has %d beyond", n, n-1-rankIndex(50, n))
			}
			continue
		}
		if beyond := n - 1 - rankIndex(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond, want >= %d", n, p, beyond, minBeyond)
		}
		for _, higher := range tailLadder {
			if higher <= p {
				break
			}
			if n-1-rankIndex(higher, n) >= minBeyond {
				t.Fatalf("n=%d: chose p%g but p%g also leaves %d beyond", n, p, higher, minBeyond)
			}
		}
	}
	for _, c := range []struct {
		n int
		p float64
	}{{19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.p {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.p)
		}
	}
	for _, floor := range []int{trainMinOps, clusterMinOps} {
		if tailPercentile(floor) != 75 || tailPercentile(floor-1) == 75 {
			t.Errorf("a window floor of %d steps does not put the tail exactly at p75", floor)
		}
	}
	if n := int(serveRate * 20 / serveTailParts); tailPercentile(n) != serveTailP {
		t.Errorf("a quarter of a 20 s serve window, %d requests, has its tail at p%g; the workload reports p%d", n, tailPercentile(n), serveTailP)
	}
}

func TestPoissonScheduleReproducesFromSeed(t *testing.T) {
	a := poissonSchedule(7, 400, 5, servePool)
	b := poissonSchedule(7, 400, 5, servePool)
	c := poissonSchedule(8, 400, 5, servePool)
	if len(a) != 2000 || len(b) != len(a) || len(c) != len(a) {
		t.Fatalf("schedule lengths %d %d %d, want 2000", len(a), len(b), len(c))
	}
	differ := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two schedules from seed 7: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			differ = true
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i].at, i-1, a[i-1].at)
		}
		if a[i].input < 0 || a[i].input >= servePool {
			t.Fatalf("arrival %d draws input %d outside the pool", i, a[i].input)
		}
	}
	if !differ {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if last := a[len(a)-1].at; last > 5*time.Second || last < 4900*time.Millisecond {
		t.Fatalf("last arrival at %v, want just under the 5 s window", last)
	}
	// Exponential gaps: the coefficient of variation is about 1.
	var sum, sq float64
	prev := time.Duration(0)
	for _, x := range a {
		g := float64(x.at - prev)
		sum += g
		sq += g * g
		prev = x.at
	}
	mean := sum / float64(len(a))
	if cv := math.Sqrt(sq/float64(len(a))-mean*mean) / mean; cv < 0.9 || cv > 1.1 {
		t.Fatalf("gap coefficient of variation %.3f, want about 1 for Poisson arrivals", cv)
	}
}

func TestTailIsMedianOverParts(t *testing.T) {
	ops := make([]float64, 400)
	for i := range ops {
		ops[i] = float64(i % 100) // each quarter: 0..99, p99 = 98
	}
	ops[10] = 1000 // a burst inside the first quarter
	ops[20] = 1000
	r := &result{metrics: make(map[string]float64)}
	r.opSummary(ops, 99, 4)
	if got := r.metrics[mOpTail]; got != 98 {
		t.Errorf("tail over quarters %v, want 98 (the burst moves one quarter only)", got)
	}
	r.opSummary(ops, 99, 1)
	if got := r.metrics[mOpTail]; got != 99 {
		t.Errorf("whole-window p99 %v, want 99", got)
	}
}

func TestRefusedRequestIsFailedAndMisses(t *testing.T) {
	outs := []outcome{
		{lat: 3 * time.Millisecond},
		{lat: 40 * time.Millisecond},
		{err: serve.ErrOverloaded},
		{lat: time.Millisecond, wrong: true},
	}
	lat, failed, good := tally(outs, serveLimit)
	if failed != 2 || good != 1 {
		t.Fatalf("failed %d good %d, want 2 failed (refused, wrong) and 1 within the limit", failed, good)
	}
	if !math.IsInf(lat[2], 1) || !math.IsInf(lat[3], 1) {
		t.Fatalf("refused and wrong requests have latencies %v and %v, want +Inf", lat[2], lat[3])
	}
	if got := percentile(lat, 50); got != 40 {
		t.Fatalf("p50 %v, want 40 (failures sort beyond every answered request)", got)
	}
}

func TestSelfTimeFromSpanNesting(t *testing.T) {
	ms := time.Millisecond
	drv := func(name string, ph trace.Phase, start, dur time.Duration, flops int64) trace.Span {
		return trace.Span{Name: name, Phase: ph, Rank: trace.RankDriver, Band: -1, Start: start, Dur: dur, FLOPs: flops}
	}
	spans := []trace.Span{
		drv("iteration", trace.PhaseIteration, 0, 100*ms, 0),
		drv("conv1", trace.PhaseForward, 0, 30*ms, 3e6),
		drv("conv1", trace.PhaseBackward, 40*ms, 50*ms, 0),
		drv("conv1", trace.PhaseReduce, 60*ms, 20*ms, 0),
		drv("update", trace.PhaseUpdate, 90*ms, 5*ms, 0),
		// A worker band inside conv1's forward is concurrent, not a child.
		{Name: "conv1", Phase: trace.PhaseForward, Rank: 0, Band: 0, Start: 0, Dur: 29 * ms},
	}
	tot := driverTotals(spans)
	for _, c := range []struct {
		k    spanKey
		self time.Duration
	}{
		{spanKey{"iteration", trace.PhaseIteration}, 15 * ms},
		{spanKey{"conv1", trace.PhaseForward}, 30 * ms},
		{spanKey{"conv1", trace.PhaseBackward}, 30 * ms},
		{spanKey{"conv1", trace.PhaseReduce}, 20 * ms},
		{spanKey{"update", trace.PhaseUpdate}, 5 * ms},
	} {
		if got := tot[c.k]; got == nil || got.self != c.self || got.count != 1 {
			t.Errorf("%v: %+v, want one span with self time %v", c.k, got, c.self)
		}
	}
	m := make(map[string]float64)
	addLayerMetrics(m, tot, map[string]string{"conv1": "conv1"}, 1)
	if m["layers.conv1.fwd_us"] != 30000 || m["layers.conv1.bwd_us"] != 30000 {
		t.Errorf("conv1 fwd/bwd self %v/%v us, want 30000/30000", m["layers.conv1.fwd_us"], m["layers.conv1.bwd_us"])
	}
	if g := m["layers.conv1.fwd_gflops"]; math.Abs(g-0.1) > 1e-12 {
		t.Errorf("conv1 fwd %v GFLOP/s, want 0.1 (3e6 FLOPs in 30 ms)", g)
	}
}

func TestTimedTransportCountsCalls(t *testing.T) {
	group := transport.NewLocalGroup(2)
	a := &timedTransport{Transport: group[0]}
	b := &timedTransport{Transport: group[1]}
	defer a.Close()
	defer b.Close()
	tag := transport.MakeTag(transport.KindGrad, 0, 0, 0)
	if err := a.Send(1, tag, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, 2)
	if err := b.Recv(0, tag, buf); err != nil {
		t.Fatal(err)
	}
	if a.sends.Load() != 1 || b.recvs.Load() != 1 || buf[1] != 2 {
		t.Fatalf("sends %d recvs %d payload %v", a.sends.Load(), b.recvs.Load(), buf)
	}
}

func TestResultLineHasEveryMetricOfItsKind(t *testing.T) {
	res := &result{attempted: 3, metrics: map[string]float64{
		mSetup: 0.5, mRSS: 40, mRate: 100, mOpP50: 2, mOpTail: math.Inf(1),
	}}
	for _, traced := range []bool{false, true} {
		line, err := resultLine(res, traced)
		if err != nil {
			t.Fatal(err)
		}
		var out resultJSON
		if err := json.Unmarshal(line, &out); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(out.Metrics) != len(want) || !out.Correct || out.Attempted != 3 {
			t.Fatalf("traced=%v: %d metrics, correct %v, attempted %d", traced, len(out.Metrics), out.Correct, out.Attempted)
		}
	}
	delete(res.metrics, mRSS)
	if _, err := resultLine(res, false); err == nil {
		t.Fatal("a missing end-to-end metric was not an error")
	}
}

// A short serving window exercises the whole workload: setup, the
// batch-1 reference, the open loop and the correctness gate.
func TestServeWorkloadSmoke(t *testing.T) {
	res, err := runServe(config{workload: wServe, seed: 1, seconds: 0.5, procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.gate != nil || res.failed != 0 || res.attempted != int(serveRate/2) {
		t.Fatalf("gate %v, %d of %d failed", res.gate, res.failed, res.attempted)
	}
	if _, err := resultLine(res, false); err != nil {
		t.Fatal(err)
	}
}

// Two TCP steps exercise the cluster's set-up, lockstep stepping,
// traffic accounting and teardown, and must pass its own gate.
func TestClusterTCPMatchesLocal(t *testing.T) {
	c, err := buildTCPCluster(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	before := c.traffic()
	var losses []float64
	for i := 0; i < 2; i++ {
		_, l, err := c.step()
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, l)
	}
	if got := c.traffic().minus(before).gradBytes; got != 2*1724320 {
		t.Errorf("two steps moved %d gradient bytes, want 2 x 1724320 (LeNet's f32 parameters)", got)
	}
	if err := localGate(1, 2, losses); err != nil {
		t.Fatal(err)
	}
}
