package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/dist"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/transport"
	"coarsegrain/internal/zoo"
)

// cluster-lenet-tcp: dist with nproc ranks in one process over loopback
// TCP, with dnncluster's defaults — tree reduction, f32 wire, fan-out 2,
// sequential engine per rank, global batch 64.
const (
	clusterBatch   = 64
	clusterSamples = 32 * clusterBatch
	// clusterMinOps is the smallest window: 40 steps put the tail at p75.
	clusterMinOps = 40
)

// timedTransport wraps a Transport and times its data-plane Send and
// Recv calls, beside transport.Meter's traffic counts.
type timedTransport struct {
	transport.Transport
	sendNS, sends, recvNS, recvs atomic.Int64
}

// Send implements transport.Transport.
func (t *timedTransport) Send(to int, tag transport.Tag, payload []float32) error {
	start := time.Now()
	err := t.Transport.Send(to, tag, payload)
	t.sendNS.Add(int64(time.Since(start)))
	t.sends.Add(1)
	return err
}

// Recv implements transport.Transport.
func (t *timedTransport) Recv(from int, tag transport.Tag, buf []float32) error {
	start := time.Now()
	err := t.Transport.Recv(from, tag, buf)
	t.recvNS.Add(int64(time.Since(start)))
	t.recvs.Add(1)
	return err
}

// rank is one member of the group.
type rank struct {
	nd    *dist.Node
	meter *transport.Meter
	timed *timedTransport
}

type cluster struct {
	ranks []*rank // by transport rank
}

// newRank builds one rank's LeNet over its shard of the global batch,
// wraps its transport in a Meter and a timer, and joins the group's
// weight sync. tc, when non-nil, traces rank 0's net (and through it
// the dist node).
func newRank(t transport.Transport, src layers.Source, seed uint64, tc *trace.Tracer) (*rank, error) {
	shard, err := data.NewShard(src, t.Rank(), t.Size(), clusterBatch)
	if err != nil {
		return nil, err
	}
	specs, err := zoo.Build("lenet", shard, zoo.Options{BatchSize: shard.LocalBatch(), Seed: seed})
	if err != nil {
		return nil, err
	}
	n, err := net.New(specs, core.NewSequential())
	if err != nil {
		return nil, err
	}
	if t.Rank() == 0 {
		n.SetTracer(tc)
	}
	rk := &rank{meter: transport.NewMeter(t)}
	rk.timed = &timedTransport{Transport: rk.meter}
	opts := dist.Options{Fanout: 2, Topology: dist.TopologyTree, GradWire: "f32"}
	if t.Rank() == 0 {
		rk.nd, err = dist.NewRoot(rk.timed, n, zoo.LeNetSolver(), opts)
	} else {
		rk.nd, err = dist.NewWorker(rk.timed, n, opts)
	}
	if err != nil {
		return nil, err
	}
	if err := rk.nd.SyncWeights(); err != nil {
		return nil, fmt.Errorf("rank %d weight sync: %w", t.Rank(), err)
	}
	return rk, nil
}

// startGroup builds every rank concurrently — each joins the group's
// transport through connect — and closes every transport if any rank
// fails.
func startGroup(k int, connect func(slot int) (transport.Transport, error), seed uint64, tc *trace.Tracer) (*cluster, error) {
	src := data.NewSyntheticMNIST(clusterSamples, seed)
	c := &cluster{ranks: make([]*rank, k)}
	trs := make([]transport.Transport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for slot := 0; slot < k; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, err := connect(slot)
			if err != nil {
				errs[slot] = err
				return
			}
			trs[slot] = t
			rk, err := newRank(t, src, seed, tc)
			if err != nil {
				errs[slot] = err
				t.Close() // unblocks peers waiting in the weight sync
				return
			}
			c.ranks[t.Rank()] = rk
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, t := range trs {
				if t != nil {
					t.Close()
				}
			}
			return nil, err
		}
	}
	return c, nil
}

// buildTCPCluster is the cluster workload's set-up: loopback TCP
// rendezvous (one connection per rank pair), nets, nodes and weight
// sync.
func buildTCPCluster(seed uint64, k int, tc *trace.Tracer) (*cluster, error) {
	coord, err := transport.NewCoordinator("127.0.0.1:0", k)
	if err != nil {
		return nil, err
	}
	return startGroup(k, func(slot int) (transport.Transport, error) {
		if slot == 0 {
			return coord.Wait()
		}
		return transport.DialTCP(coord.Addr())
	}, seed, tc)
}

// buildLocalCluster is the same group over the in-process transport.
func buildLocalCluster(seed uint64, k int) (*cluster, error) {
	group := transport.NewLocalGroup(k)
	return startGroup(k, func(slot int) (transport.Transport, error) { return group[slot], nil }, seed, nil)
}

func (c *cluster) close() {
	for _, rk := range c.ranks {
		rk.timed.Close()
	}
}

// step runs one lockstep iteration on every rank and returns rank 0's
// Step time and global loss. A failing rank closes its transport so
// peers blocked on it fail too instead of waiting forever.
func (c *cluster) step() (time.Duration, float64, error) {
	var d0 time.Duration
	var loss0 float64
	errs := make([]error, len(c.ranks))
	var wg sync.WaitGroup
	for r, rk := range c.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			losses, err := rk.nd.Step(1)
			if err != nil {
				errs[r] = err
				rk.timed.Close()
				return
			}
			if r == 0 {
				d0, loss0 = time.Since(start), losses[0]
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return d0, loss0, nil
}

// traffic is the group's cumulative data-plane traffic and rank 0's
// transport call times.
type traffic struct {
	frames, bytes, gradBytes int64
	sendNS, sends, recvNS    int64
}

func (c *cluster) traffic() traffic {
	var t traffic
	for _, rk := range c.ranks {
		for k := transport.Kind(0); k < transport.KindCount; k++ {
			t.frames += rk.meter.SentFrames(k)
			t.bytes += rk.meter.SentBytes(k)
		}
		t.gradBytes += rk.meter.GradBytes()
	}
	r0 := c.ranks[0].timed
	t.sendNS, t.sends, t.recvNS = r0.sendNS.Load(), r0.sends.Load(), r0.recvNS.Load()
	return t
}

func (t traffic) minus(o traffic) traffic {
	return traffic{
		frames: t.frames - o.frames, bytes: t.bytes - o.bytes, gradBytes: t.gradBytes - o.gradBytes,
		sendNS: t.sendNS - o.sendNS, sends: t.sends - o.sends, recvNS: t.recvNS - o.recvNS,
	}
}

func runCluster(cfg config) (*result, error) {
	res := &result{metrics: make(map[string]float64)}
	k := cfg.procs
	if k < 2 {
		k = 2 // a one-rank group would not communicate
	}
	c, setup, err := timeSetups(func() (*cluster, error) { return buildTCPCluster(cfg.seed, k, nil) }, (*cluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()
	res.metrics[mSetup] = setup

	var losses []float64
	step := func() (time.Duration, error) {
		d, l, err := c.step()
		losses = append(losses, l)
		return d, err
	}
	for i := 0; i < warmupSteps; i++ {
		if _, err := step(); err != nil {
			return nil, err
		}
	}
	length := cfg.seconds
	if cfg.trace {
		length /= 2
	}
	times, wall, err := window(length, clusterMinOps, step)
	if err != nil {
		return nil, err
	}
	res.attempted = len(times)
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.metrics[mRSS] = rss
		res.metrics[mRate] = float64(len(times)*clusterBatch) / wall.Seconds()
		res.opSummary(durationsMS(times), tailPercentile(clusterMinOps), 1)
	} else if err := tracedCluster(cfg, k, res, times); err != nil {
		return nil, err
	}
	res.gate = localGate(cfg.seed, k, losses[:gatePrefix])
	return res, nil
}

// tracedCluster runs the traced half of a --trace 1 run on a second
// group whose rank 0 is traced, and derives the per-layer metrics.
func tracedCluster(cfg config, k int, res *result, untraced []time.Duration) error {
	tc := trace.New(1)
	c, err := buildTCPCluster(cfg.seed, k, tc)
	if err != nil {
		return err
	}
	defer c.close()
	for i := 0; i < warmupSteps; i++ {
		if _, _, err := c.step(); err != nil {
			return err
		}
	}
	tc.Reset()
	before := c.traffic()
	traced, _, err := window(cfg.seconds/2, 1, func() (time.Duration, error) {
		d, _, err := c.step()
		return d, err
	})
	if err != nil {
		return err
	}
	res.attempted += len(traced)
	tf := c.traffic().minus(before)
	iters := float64(len(traced))
	spans := tc.Snapshot()
	tot := driverTotals(spans)
	m := res.metrics
	n := c.ranks[0].nd.Net()
	addLayerMetrics(m, tot, layerKeys(n), len(traced))
	m["net.memory_bytes"] = float64(n.MemoryBytes())
	m["solver.update_us"] = us(rootUpdate(spans)) / iters
	m["dist.compute_ms"] = ms(phaseTotal(tot, trace.PhaseForward)+phaseTotal(tot, trace.PhaseBackward)) / iters
	m["dist.comm_ms"] = ms(phaseTotal(tot, trace.PhaseComm)) / iters
	m["dist.recv_wait_ms"] = ms(time.Duration(tf.recvNS)) / iters
	if tf.sends > 0 {
		m["transport.send_us"] = us(time.Duration(tf.sendNS)) / float64(tf.sends)
	}
	m["transport.frames_per_iter"] = float64(tf.frames) / iters
	m["transport.bytes_per_iter"] = float64(tf.bytes) / iters
	m["transport.grad_bytes_per_iter"] = float64(tf.gradBytes) / iters
	m[mOverPct] = overheadPct(durationsMS(untraced), durationsMS(traced))
	m[mDropped] = float64(tc.Dropped())
	return nil
}

// rootUpdate is the root's solver update time: dist runs it between
// the end of the root's gather span and the start of its bcast span.
func rootUpdate(spans []trace.Span) time.Duration {
	var comm []trace.Span
	for _, s := range spans {
		if s.Phase == trace.PhaseComm && s.Rank == trace.RankDriver {
			comm = append(comm, s)
		}
	}
	sort.SliceStable(comm, func(i, j int) bool { return comm[i].Start < comm[j].Start })
	var total time.Duration
	for i := 1; i < len(comm); i++ {
		if comm[i-1].Name == "gather" && comm[i].Name == "bcast" {
			total += comm[i].Start - comm[i-1].End()
		}
	}
	return total
}

// localGate replays the first iterations over the in-process transport:
// dist pins TCP ≡ Local, so rank 0's losses must match to the bit.
func localGate(seed uint64, k int, got []float64) error {
	c, err := buildLocalCluster(seed, k)
	if err != nil {
		return err
	}
	defer c.close()
	want := make([]float64, 0, len(got))
	for range got {
		_, l, err := c.step()
		if err != nil {
			return err
		}
		want = append(want, l)
	}
	return sameBits("rank-0 loss", want, got)
}
