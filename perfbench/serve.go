package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/serve"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/zoo"
)

// serve-lenet-open: an in-process serve.Server with dnnserve's defaults
// (lowered convolution, MaxBatch 32, MaxDelay 2 ms, one replica) under
// an open loop of seeded Poisson arrivals at a fixed light rate.
const (
	// serveRate is the offered load, about a tenth of the server's
	// closed-loop capacity on a 2-core host, far below the rate at which
	// batching starts to tip latency. At twice this rate the replica is
	// busy about 40% of the time, and queueing amplified every slowdown
	// of the shared host into the tail: interleaved runs on a 2-vCPU
	// host spread 23% in the tail at 400 req/s and 7% at 200 req/s.
	serveRate = 200.0
	// servePool is the number of distinct inputs the requests draw from.
	servePool = 256
	// serveLimit is the latency limit of goodput: a request answered
	// later than this, refused, failed or wrong is a miss.
	serveLimit = 25 * time.Millisecond
	// The tail is the median over serveTailParts quarters of the window
	// of each quarter's serveTailP percentile. A 20 s window schedules
	// 4000 requests, 1000 a quarter, and p99 is the highest percentile
	// with at least 10 of them beyond it. Stalls of the shared host come
	// in bursts of a few hundred ms that land in one quarter or another;
	// the median over quarters keeps one burst from setting the tail.
	serveTailP     = 99
	serveTailParts = 4
	// replayBatches caps how many of the traced window's batches the
	// per-layer replay re-runs.
	replayBatches = 1000
)

// serveConfig is dnnserve's default configuration for the zoo LeNet.
func serveConfig(seed uint64, maxBatch int, tr *trace.Tracer) serve.Config {
	return serve.Config{
		Build: func(src layers.Source) ([]net.LayerSpec, error) {
			return zoo.Build("lenet", src, zoo.Options{Seed: seed, LoweredConv: true})
		},
		SampleShape: []int{1, 28, 28},
		Classes:     10,
		ScoreBlob:   "ip2",
		Model:       "lenet",
		MaxBatch:    maxBatch,
		MaxDelay:    2 * time.Millisecond,
		Replicas:    1,
		Tracer:      tr,
	}
}

// startServer is the serve workload's set-up: build and start (which
// warms the replica with one full batch).
func startServer(cfg serve.Config) (*serve.Server, error) {
	s, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	s.Start()
	return s, nil
}

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration // due time from the window's start
	input int           // index into the input pool
}

// poissonSchedule draws a Poisson arrival process of the given rate
// over a window of the given length, conditioned on its expected count:
// round(rate × seconds) arrivals at the normalized partial sums of
// exponential gaps, which are distributed as the sorted uniform times of
// a Poisson process with that count. Each arrival draws a pool input.
func poissonSchedule(seed uint64, rate, seconds float64, pool int) []arrival {
	r := rand.New(rand.NewPCG(seed, 0x5e12e))
	n := int(math.Round(rate * seconds))
	sums := make([]float64, n+1)
	total := 0.0
	for i := range sums {
		total += r.ExpFloat64()
		sums[i] = total
	}
	length := seconds * float64(time.Second)
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at: time.Duration(length * sums[i] / total), input: r.IntN(pool)}
	}
	return out
}

// outcome is one request's result.
type outcome struct {
	lat   time.Duration // completion minus due time
	err   error         // refusal or failure
	wrong bool          // scores differ from the batch-1 reference
}

// tally turns outcomes into latencies in ms — +Inf for a request that
// was refused, failed or answered wrongly, so it misses every limit —
// and counts the failed requests and those answered within limit.
func tally(outs []outcome, limit time.Duration) (latMS []float64, failed, good int) {
	latMS = make([]float64, len(outs))
	for i, o := range outs {
		if o.err != nil || o.wrong {
			latMS[i] = math.Inf(1)
			failed++
			continue
		}
		latMS[i] = ms(o.lat)
		if o.lat <= limit {
			good++
		}
	}
	return latMS, failed, good
}

// openLoop sends the schedule to srv, each request on its own goroutine
// at its due time, and checks every answer against refs. It returns the
// outcomes, the wall time from the window's start to the last answer,
// and how late the generator ran at worst.
func openLoop(srv *serve.Server, sched []arrival, inputs, refs [][]float32) ([]outcome, time.Duration, time.Duration) {
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	var maxLag time.Duration
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(due); lag > maxLag {
			maxLag = lag
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := srv.Acquire()
			copy(r.Input(), inputs[a.input])
			err := srv.Do(r)
			o := outcome{lat: time.Since(due), err: err}
			if err == nil {
				o.wrong = !sameFloatBits(r.Scores(), refs[a.input])
			}
			srv.Release(r)
			outs[i] = o
		}()
	}
	wg.Wait()
	return outs, time.Since(start), maxLag
}

func countWrong(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.wrong {
			n++
		}
	}
	return n
}

func sameFloatBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// serveInputs renders the input pool.
func serveInputs(seed uint64) [][]float32 {
	src := data.NewSyntheticMNIST(servePool, seed)
	inputs := make([][]float32, servePool)
	for i := range inputs {
		inputs[i] = make([]float32, 28*28)
		src.Read(i, inputs[i])
	}
	return inputs
}

// referenceScores answers every input one at a time on a batch-1
// server: the serial side of the batched ≡ serial property.
func referenceScores(seed uint64, inputs [][]float32) ([][]float32, error) {
	s, err := startServer(serveConfig(seed, 1, nil))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	refs := make([][]float32, len(inputs))
	for i, in := range inputs {
		r := s.Acquire()
		copy(r.Input(), in)
		if err := s.Do(r); err != nil {
			return nil, fmt.Errorf("reference forward: %w", err)
		}
		refs[i] = append([]float32(nil), r.Scores()...)
		s.Release(r)
	}
	return refs, nil
}

func runServe(cfg config) (*result, error) {
	res := &result{metrics: make(map[string]float64)}
	srv, setup, err := timeSetups(
		func() (*serve.Server, error) { return startServer(serveConfig(cfg.seed, 32, nil)) },
		(*serve.Server).Close)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	res.metrics[mSetup] = setup
	inputs := serveInputs(cfg.seed)
	refs, err := referenceScores(cfg.seed, inputs)
	if err != nil {
		return nil, err
	}

	length := cfg.seconds
	if cfg.trace {
		length /= 2
	}
	sched := poissonSchedule(cfg.seed, serveRate, length, servePool)
	outs, wall, lag := openLoop(srv, sched, inputs, refs)
	var touts []outcome // the traced window's, when there is one
	latMS, failed, good := tally(outs, serveLimit)
	res.attempted, res.failed = len(outs), failed
	res.notef("goodput limit %v; %d of %d requests within it; generator late by at most %.3f ms",
		serveLimit, good, len(outs), ms(lag))
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.metrics[mRSS] = rss
		res.metrics[mRate] = float64(good) / wall.Seconds()
		res.opSummary(latMS, serveTailP, serveTailParts)
	} else {
		rejected := srv.Stats().Rejected
		res.metrics["serve.gen_lag_ms.max"] = ms(lag)
		tc := trace.NewWithCapacity(1, 4*len(sched)+1024)
		traced, err := startServer(serveConfig(cfg.seed, 32, tc))
		if err != nil {
			return nil, err
		}
		touts, _, _ = openLoop(traced, sched, inputs, refs)
		traced.Close()
		tlat, tfailed, _ := tally(touts, serveLimit)
		res.attempted += len(touts)
		res.failed += tfailed
		st := traced.Stats()
		res.metrics["serve.rejected"] = float64(rejected + st.Rejected)
		res.metrics["serve.batch_mean"] = st.MeanBatch
		if f := st.FullFlushes + st.DeadlineFlushes; f > 0 {
			res.metrics["serve.deadline_flush_ratio"] = float64(st.DeadlineFlushes) / float64(f)
		}
		res.metrics[mOverPct] = overheadPct(latMS, tlat)
		res.metrics[mDropped] = float64(tc.Dropped())
		if err := serveSpanMetrics(res, tc.Snapshot(), cfg.seed); err != nil {
			return nil, err
		}
	}
	if wrong := countWrong(outs) + countWrong(touts); wrong > 0 {
		res.gate = fmt.Errorf("%d of %d responses differ from the batch-1 forward of the same input", wrong, res.attempted)
	}
	return res, nil
}

// serveSpanMetrics derives serve.infer_ms and serve.queue_ms from the
// batch and request spans, and the forward per-layer metrics from a
// traced forward-only net — built like a replica — replaying the
// window's batch sizes in order.
func serveSpanMetrics(res *result, spans []trace.Span, seed uint64) error {
	type batchID struct{ rank, seq int }
	batchStart := make(map[batchID]time.Duration)
	var infer, queue []float64
	var sizes []int
	for _, s := range spans {
		if s.Phase == trace.PhaseServe && s.Name == "batch" {
			batchStart[batchID{s.Rank, s.Band}] = s.Start
			infer = append(infer, ms(s.Dur))
			sizes = append(sizes, s.Hi)
		}
	}
	for _, s := range spans {
		if s.Phase == trace.PhaseServe && s.Name == "request" {
			if b, ok := batchStart[batchID{s.Rank, s.Band}]; ok {
				queue = append(queue, ms(b-s.Start))
			}
		}
	}
	if len(infer) == 0 || len(queue) == 0 {
		return fmt.Errorf("traced serving window recorded %d batch and %d request spans", len(infer), len(queue))
	}
	res.metrics["serve.infer_ms.p50"] = median(infer)
	res.metrics["serve.queue_ms.p50"] = median(queue)

	if len(sizes) > replayBatches {
		sizes = sizes[:replayBatches]
	}
	src := data.NewSyntheticMNIST(servePool, seed)
	specs, err := zoo.Build("lenet", src, zoo.Options{BatchSize: 32, Seed: seed, LoweredConv: true})
	if err != nil {
		return err
	}
	n, err := net.NewForward(serve.StripTraining(specs), nil)
	if err != nil {
		return err
	}
	res.metrics["net.memory_bytes"] = float64(n.MemoryBytes())
	var dl *layers.Data
	for _, l := range n.Layers() {
		if d, ok := l.(*layers.Data); ok {
			dl = d
		}
	}
	n.Forward() // warm at the largest batch, as Server.Start does
	tc := trace.New(1)
	n.SetTracer(tc)
	for _, b := range sizes {
		if b != dl.BatchSize() {
			dl.SetBatchSize(b)
			n.Reshape()
		}
		n.Forward()
	}
	addLayerMetrics(res.metrics, driverTotals(tc.Snapshot()), layerKeys(n), len(sizes))
	res.metrics[mDropped] += float64(tc.Dropped())
	return nil
}
