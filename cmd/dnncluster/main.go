// Command dnncluster runs the distributed data-parallel trainer
// (internal/dist) in one process or several, over the transport
// abstraction of internal/transport (see DISTRIBUTED.md).
//
// Single process, k in-process replicas over the Local transport:
//
//	dnncluster -zoo lenet -replicas 4 -fanout 2 -iters 100
//
// Multi-process over TCP: start a coordinator (rank 0, owns the solver),
// then one worker per remaining rank. The coordinator publishes its
// rendezvous address via -addr-file:
//
//	dnncluster -role coordinator -replicas 2 -addr 127.0.0.1:0 \
//	           -addr-file /tmp/coord.addr -zoo lenet -iters 100 &
//	dnncluster -role worker -addr-file /tmp/coord.addr -zoo lenet -iters 100
//
// Every role builds the same seeded network over its shard of the global
// batch, so a k-rank run — local or TCP, any -fanout, even with -flaky-*
// faults injected — produces snapshots bit-identical to the
// single-process replica trainer with k replicas (the determinism
// contract tested in internal/dist). -snapshot writes the root's final
// solver state in the same format as dnntrain; -trace records PhaseComm
// spans next to compute spans (OBSERVABILITY.md).
//
// -predict runs the internal/simtime cluster model against a measured
// single-replica calibration and, for each k, compares the predicted
// iteration speedup with a measured in-process run (the EXPERIMENTS.md
// scaling study).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"coarsegrain/internal/core"
	"coarsegrain/internal/data"
	"coarsegrain/internal/dist"
	"coarsegrain/internal/faultinject"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/simtime"
	"coarsegrain/internal/snapshot"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/trace"
	"coarsegrain/internal/transport"
	"coarsegrain/internal/zoo"
)

type config struct {
	role     string
	replicas int
	fanout   int
	reduce   string
	gradWire string
	iters    int
	display  int

	model   *zoo.Model // resolved from -model, -zoo and -dataset
	engine  string
	workers int
	batch   int
	samples int
	seed    uint64
	dataDir string

	addr     string
	addrFile string

	snapPath   string
	tracePath  string
	resumePath string

	elastic      bool
	fenceDir     string
	minRanks     int
	rejoin       bool
	heartbeat    time.Duration
	peerTimeout  time.Duration
	iterDeadline time.Duration

	chaosMode  string
	chaosRank  int
	chaosIter  int
	chaosDelay time.Duration
	chaosSeed  uint64

	noOverlap  bool
	flakyDrop  float64
	flakyDup   float64
	flakyDelay float64
	flakySeed  uint64

	predict bool
}

func main() {
	var c config
	var modelPath, zooName, dataset string
	flag.StringVar(&c.role, "role", "local", "local | coordinator | worker")
	flag.IntVar(&c.replicas, "replicas", 2, "total rank count (local and coordinator roles)")
	flag.IntVar(&c.fanout, "fanout", 2, "reduction tree fan-out")
	flag.StringVar(&c.reduce, "reduce", "tree", "gradient exchange topology: tree | ring")
	flag.StringVar(&c.gradWire, "grad-wire", "f32", "gradient wire format: f32 | f16 | int8 (lossy formats use error feedback)")
	flag.IntVar(&c.iters, "iters", 100, "training iterations")
	flag.IntVar(&c.display, "display", 20, "print loss every N iterations (root only)")
	flag.StringVar(&modelPath, "model", "", "network prototxt file")
	flag.StringVar(&zooName, "zoo", "lenet", "built-in network instead of -model: lenet | cifar10-full")
	flag.StringVar(&c.engine, "engine", "sequential", "per-rank execution engine: sequential | coarse | fine | tuned")
	flag.IntVar(&c.workers, "workers", 1, "per-rank engine worker count")
	flag.IntVar(&c.batch, "batch", 0, "global batch size (split across replicas; default 64 MNIST / 100 CIFAR)")
	flag.IntVar(&c.samples, "samples", 0, "synthetic dataset size (default: 32 global batches)")
	flag.Uint64Var(&c.seed, "seed", 1, "weight/data seed (must match across all ranks)")
	flag.StringVar(&c.dataDir, "data", "", "directory with real dataset files")
	flag.StringVar(&dataset, "dataset", "", "force dataset: mnist | cifar (default inferred)")
	flag.StringVar(&c.addr, "addr", "", "coordinator: listen address (default 127.0.0.1:0); worker: coordinator address")
	flag.StringVar(&c.addrFile, "addr-file", "", "coordinator: write rendezvous address here; worker: read it from here")
	flag.StringVar(&c.snapPath, "snapshot", "", "root: write the final solver snapshot here (dnntrain-compatible)")
	flag.StringVar(&c.tracePath, "trace", "", "write a Chrome trace-event JSON of this rank's run here")
	flag.StringVar(&c.resumePath, "resume", "", "resume from this solver snapshot (-iters is the absolute target iteration)")
	flag.BoolVar(&c.elastic, "elastic", false, "run under the elastic supervisor: heartbeat failure detection + checkpoint-fenced membership")
	flag.StringVar(&c.fenceDir, "fence-dir", "", "elastic: fence checkpoint directory (required on rank 0)")
	flag.IntVar(&c.minRanks, "min-ranks", 1, "elastic: abort rather than shrink the group below this many ranks")
	flag.BoolVar(&c.rejoin, "rejoin", false, "elastic: evicted ranks wait to rejoin instead of exiting")
	flag.DurationVar(&c.heartbeat, "heartbeat", 0, "elastic: coordinator ping period (default 20ms)")
	flag.DurationVar(&c.peerTimeout, "peer-timeout", 0, "elastic: silence after which a member is declared dead (default 10 heartbeats)")
	flag.DurationVar(&c.iterDeadline, "iter-deadline", 0, "elastic: per-iteration straggler deadline (0 disables)")
	flag.StringVar(&c.chaosMode, "chaos-mode", "none", "inject a cluster failure (local role): none | crash | hang | partition | straggle")
	flag.IntVar(&c.chaosRank, "chaos-rank", -1, "chaos victim rank (-1: seeded choice, never rank 0)")
	flag.IntVar(&c.chaosIter, "chaos-iter", -1, "chaos trigger iteration (-1: seeded choice)")
	flag.DurationVar(&c.chaosDelay, "chaos-delay", 0, "straggle: injected per-iteration delay (default 250ms)")
	flag.Uint64Var(&c.chaosSeed, "chaos-seed", 1, "seed for the unset -chaos-* choices")
	flag.BoolVar(&c.noOverlap, "no-overlap", false, "disable the backward-hook scatter overlap (values are identical)")
	flag.Float64Var(&c.flakyDrop, "flaky-drop", 0, "inject send drops with this probability (deterministic per -flaky-seed)")
	flag.Float64Var(&c.flakyDup, "flaky-dup", 0, "inject duplicate sends with this probability")
	flag.Float64Var(&c.flakyDelay, "flaky-delay", 0, "inject send delays with this probability")
	flag.Uint64Var(&c.flakySeed, "flaky-seed", 1, "fault-injection seed (offset by rank)")
	flag.BoolVar(&c.predict, "predict", false, "run the simtime cluster model vs measured in-process scaling, then exit")
	flag.Parse()

	var err error
	if c.model, err = zoo.Resolve(zooName, modelPath, dataset); err != nil {
		fatal(err)
	}
	if c.batch <= 0 {
		c.batch = c.model.Batch
	}
	if c.predict {
		if err := runPredict(c); err != nil {
			fatal(err)
		}
		return
	}

	switch c.role {
	case "local":
		err = runLocal(c)
	case "coordinator":
		err = runCoordinator(c)
	case "worker":
		err = runWorker(c)
	default:
		err = fmt.Errorf("unknown role %q (local|coordinator|worker)", c.role)
	}
	if err != nil {
		fatal(err)
	}
}

// source builds the global sample stream every rank shards. The sample
// count is rounded up to a whole number of global batches so shard
// epochs align (a data.NewShard requirement).
func (c config) source() (layers.Source, error) {
	gb := c.batch
	n := c.samples
	if n <= 0 {
		n = 32 * gb
	}
	if rem := n % gb; rem != 0 {
		n += gb - rem
	}
	src, real := c.model.Source(c.dataDir, n, c.seed)
	if src.Len()%gb != 0 {
		return nil, fmt.Errorf("dataset length %d not divisible by global batch %d (pick -batch or -samples accordingly)", src.Len(), gb)
	}
	kind := "synthetic"
	if real {
		kind = "real"
	}
	fmt.Printf("dataset: %s %s (%d samples, global batch %d)\n", kind, c.model.Dataset, src.Len(), gb)
	return src, nil
}

// buildRankNet constructs rank r's network: the seeded architecture over
// shard r of the global batch. Identical seeds on every rank are what
// make the initial weights — and therefore the whole run — bitwise
// reproducible.
func (c config) buildRankNet(src layers.Source, r, k int) (*net.Net, core.Engine, error) {
	shard, err := data.NewShard(src, r, k, c.batch)
	if err != nil {
		return nil, nil, err
	}
	specs, err := c.model.Build(shard, shard.LocalBatch(), c.seed, false)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.ByName(c.engine, c.workers)
	if err != nil {
		return nil, nil, err
	}
	n, err := net.New(specs, eng)
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	return n, eng, nil
}

func (c config) distOptions() dist.Options {
	return dist.Options{
		Fanout:    c.fanout,
		NoOverlap: c.noOverlap,
		Topology:  c.reduce,
		GradWire:  c.gradWire,
	}
}

// wrapFlaky injects the seeded fault layer when any -flaky-* probability
// is set. Each rank gets a distinct stream (seed offset by rank) so the
// fault pattern is deterministic for the whole group.
func (c config) wrapFlaky(t transport.Transport) transport.Transport {
	if c.flakyDrop == 0 && c.flakyDup == 0 && c.flakyDelay == 0 {
		return t
	}
	return transport.NewFlaky(t, transport.FlakyConfig{
		DropProb:  float32(c.flakyDrop),
		DupProb:   float32(c.flakyDup),
		DelayProb: float32(c.flakyDelay),
	}, c.flakySeed+uint64(t.Rank()))
}

// skipBatches advances every data layer's cursor past the batches a
// resumed run already consumed, so batch numbering continues where the
// snapshot left off.
func skipBatches(n *net.Net, batches int) {
	for _, l := range n.Layers() {
		if d, ok := l.(*layers.Data); ok {
			d.Skip(batches)
		}
	}
}

// engineBag collects the engines the elastic Rebuild callback creates —
// one per membership the rank lives through — for teardown after the
// run. Rebuild can race with nothing here (the supervisor serializes
// fences), but the bag is locked anyway so the contract is local.
type engineBag struct {
	mu      sync.Mutex
	engines []core.Engine
}

func (b *engineBag) add(e core.Engine) {
	b.mu.Lock()
	b.engines = append(b.engines, e)
	b.mu.Unlock()
}

func (b *engineBag) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.engines {
		e.Close()
	}
	b.engines = nil
}

// chaosScenario resolves the -chaos-* flags into a concrete failure
// plan: explicit -chaos-rank/-chaos-iter pin the choice, anything left
// unset is drawn from the seeded injector so a drill replays from
// -chaos-seed alone.
func (c config) chaosScenario() (*faultinject.ClusterScenario, error) {
	if c.chaosMode == "" || c.chaosMode == "none" {
		return nil, nil
	}
	var mode transport.ChaosMode
	switch c.chaosMode {
	case "crash":
		mode = transport.ChaosCrash
	case "hang":
		mode = transport.ChaosHang
	case "partition":
		mode = transport.ChaosPartition
	case "straggle":
		mode = transport.ChaosStraggle
	default:
		return nil, fmt.Errorf("unknown -chaos-mode %q (none|crash|hang|partition|straggle)", c.chaosMode)
	}
	s, err := faultinject.New(c.chaosSeed).ClusterScenario(c.replicas, c.iters, mode)
	if err != nil {
		return nil, err
	}
	if c.chaosRank >= 0 {
		if c.chaosRank == 0 {
			return nil, fmt.Errorf("-chaos-rank 0 would kill the coordinator, which owns the solver; pick a worker rank")
		}
		s.Victim = c.chaosRank
	}
	if c.chaosIter >= 0 {
		s.AtIter = c.chaosIter
	}
	s.Delay = c.chaosDelay
	return &s, nil
}

// runElasticRank drives one rank under the elastic supervisor
// (dist.RunElastic): the Rebuild callback reconstructs this rank's
// network for whatever membership each fence settles on, with the data
// cursor positioned at the fence iteration.
func runElasticRank(c config, t transport.Transport, src layers.Source) error {
	engines := &engineBag{}
	defer engines.Close()
	startIter := 0
	if c.resumePath != "" {
		var err error
		if startIter, err = snapshot.PeekSolverIter(c.resumePath); err != nil {
			return err
		}
	}
	cfg := dist.ElasticConfig{
		Iters: c.iters,
		Rebuild: func(rank, size, iter int) (*net.Net, error) {
			n, eng, err := c.buildRankNet(src, rank, size)
			if err != nil {
				return nil, err
			}
			engines.add(eng)
			skipBatches(n, iter)
			return n, nil
		},
		Solver:       c.model.Solver,
		Opts:         c.distOptions(),
		StartIter:    startIter,
		MinRanks:     c.minRanks,
		Rejoin:       c.rejoin,
		Heartbeat:    c.heartbeat,
		PeerTimeout:  c.peerTimeout,
		IterDeadline: c.iterDeadline,
	}
	if t.Rank() == 0 {
		cfg.FenceDir = c.fenceDir
		cfg.ResumePath = c.resumePath
		cfg.SnapshotPath = c.snapPath
	}
	rpt, err := dist.RunElastic(t, cfg)
	if err != nil {
		return fmt.Errorf("rank %d: %w", t.Rank(), err)
	}
	if t.Rank() == 0 {
		for _, f := range rpt.Fences {
			fmt.Printf("fence: epoch %d at iteration %d -> members %v (removed %v, joined %v), checkpoint %s\n",
				f.Epoch, f.Iter, f.Members, f.Removed, f.Joined, f.Checkpoint)
		}
		if len(rpt.Losses) > 0 {
			fmt.Printf("iter %5d  loss %.6f\n", c.iters, rpt.Losses[len(rpt.Losses)-1])
		}
		fmt.Printf("elastic run complete: %d ranks at finish, %d fence(s)\n", rpt.FinalSize, len(rpt.Fences))
		if c.snapPath != "" {
			fmt.Printf("snapshot written to %s (iteration %d)\n", c.snapPath, c.iters)
		}
	} else if rpt.Evicted {
		fmt.Printf("rank %d: evicted by fence, exiting cleanly\n", t.Rank())
	}
	return nil
}

// runLocalElastic is the in-process elastic run: k ranks over the Local
// transport, optionally with one seeded failure injected via -chaos-*.
// The victim's own error is the injection working, not a run failure —
// it is reported and tolerated; any other rank failing fails the run.
func runLocalElastic(c config) error {
	src, err := c.source()
	if err != nil {
		return err
	}
	scenario, err := c.chaosScenario()
	if err != nil {
		return err
	}
	group := transport.NewLocalGroup(c.replicas)
	trs := make([]transport.Transport, c.replicas)
	for r := range group {
		trs[r] = c.wrapFlaky(group[r])
	}
	victim := -1
	if scenario != nil {
		if _, err := scenario.Wrap(trs); err != nil {
			return err
		}
		victim = scenario.Victim
		fmt.Printf("chaos: %s\n", scenario)
	}
	errs := make([]error, c.replicas)
	done := make([]chan struct{}, c.replicas)
	for r := 0; r < c.replicas; r++ {
		done[r] = make(chan struct{})
		go func(r int) {
			defer close(done[r])
			rc := c
			if r != 0 {
				rc.tracePath = ""
			}
			errs[r] = runElasticRank(rc, trs[r], src)
			trs[r].Close()
		}(r)
	}
	// A hung victim blocks until its endpoint closes; waiting for the
	// survivors first, then closing the victim's transport, unblocks it
	// without ever abandoning a goroutine.
	for r := 0; r < c.replicas; r++ {
		if r != victim {
			<-done[r]
		}
	}
	if victim >= 0 {
		trs[victim].Close()
		<-done[victim]
	}
	for r, err := range errs {
		if err == nil {
			continue
		}
		if r == victim {
			fmt.Printf("rank %d failed as injected: %v\n", r, err)
			continue
		}
		return err
	}
	return nil
}

// runRank drives one rank to completion: build the node, step, and on
// the root print losses, write the snapshot and the trace. With -resume
// every rank positions its data cursor at the snapshot's iteration, the
// root reloads the solver state, and the group syncs weights before
// stepping — the same sequence the elastic supervisor runs after a
// fence, so a resumed run is bit-identical to one that never stopped.
func runRank(c config, t transport.Transport, n *net.Net) error {
	var tr *trace.Tracer
	if c.tracePath != "" {
		tr = trace.New(c.workers)
		n.SetTracer(tr)
	}
	opts := c.distOptions()
	startIter := 0
	if c.resumePath != "" {
		var err error
		if startIter, err = snapshot.PeekSolverIter(c.resumePath); err != nil {
			return err
		}
		if c.iters <= startIter {
			return fmt.Errorf("-iters %d is not beyond the resumed iteration %d (it is the absolute target)", c.iters, startIter)
		}
		skipBatches(n, startIter)
		opts.StartIter = startIter
	}
	var nd *dist.Node
	var err error
	if t.Rank() == 0 {
		nd, err = dist.NewRoot(t, n, c.model.Solver, opts)
	} else {
		nd, err = dist.NewWorker(t, n, opts)
	}
	if err != nil {
		return err
	}
	if c.resumePath != "" {
		if t.Rank() == 0 {
			if err := snapshot.LoadSolverFile(c.resumePath, nd.Solver()); err != nil {
				return err
			}
			fmt.Printf("resumed from %s at iteration %d\n", c.resumePath, startIter)
		}
		if err := nd.SyncWeights(); err != nil {
			return fmt.Errorf("rank %d: resume sync: %w", t.Rank(), err)
		}
	}
	if t.Rank() == 0 {
		fmt.Printf("training %d iterations: %d replicas, %s reduce, %s wire, fanout %d, tree depth %d\n",
			c.iters-startIter, nd.Size(), c.reduce, c.gradWire, nd.Tree().Fanout(), nd.Tree().Depth())
	}
	remaining := c.iters - startIter
	for remaining > 0 {
		step := c.display
		if step <= 0 || step > remaining {
			step = remaining
		}
		losses, err := nd.Step(step)
		if t.Rank() == 0 && len(losses) > 0 {
			fmt.Printf("iter %5d  loss %.6f\n", nd.Iter(), losses[len(losses)-1])
		}
		if err != nil {
			return fmt.Errorf("rank %d: %w", t.Rank(), err)
		}
		remaining -= step
	}
	if t.Rank() == 0 && c.snapPath != "" {
		if err := snapshot.SaveSolverFile(c.snapPath, nd.Solver()); err != nil {
			return err
		}
		fmt.Printf("snapshot written to %s (iteration %d)\n", c.snapPath, nd.Solver().Iter())
	}
	if tr.Enabled() {
		if err := tr.WriteChromeTraceFile(c.tracePath); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", tr.Len(), c.tracePath)
	}
	return nil
}

// runLocal trains k in-process replicas over the Local transport — the
// single-process form of the exact same protocol the TCP roles run.
func runLocal(c config) error {
	if c.replicas < 1 {
		return fmt.Errorf("need -replicas >= 1")
	}
	if c.elastic {
		return runLocalElastic(c)
	}
	src, err := c.source()
	if err != nil {
		return err
	}
	group := transport.NewLocalGroup(c.replicas)
	nets := make([]*net.Net, c.replicas)
	engines := make([]core.Engine, c.replicas)
	for r := 0; r < c.replicas; r++ {
		if nets[r], engines[r], err = c.buildRankNet(src, r, c.replicas); err != nil {
			return err
		}
		defer engines[r].Close()
	}
	errs := make([]error, c.replicas)
	var wg sync.WaitGroup
	for r := 0; r < c.replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rc := c
			if r != 0 {
				rc.tracePath = "" // one trace file: the root's
			}
			errs[r] = runRank(rc, c.wrapFlaky(group[r]), nets[r])
			group[r].Close()
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCoordinator is TCP rank 0: listen, publish the address, wait for
// the other replicas to join, then train as the root.
func runCoordinator(c config) error {
	if c.replicas < 2 {
		return fmt.Errorf("coordinator needs -replicas >= 2")
	}
	addr := c.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	coord, err := transport.NewCoordinator(addr, c.replicas)
	if err != nil {
		return err
	}
	fmt.Printf("coordinator listening on %s (%d replicas)\n", coord.Addr(), c.replicas)
	if c.addrFile != "" {
		if err := writeAddrFile(c.addrFile, coord.Addr()); err != nil {
			return err
		}
	}
	src, err := c.source()
	if err != nil {
		return err
	}
	t, err := coord.Wait()
	if err != nil {
		return err
	}
	defer t.Close()
	if c.elastic {
		return runElasticRank(c, c.wrapFlaky(t), src)
	}
	n, eng, err := c.buildRankNet(src, 0, c.replicas)
	if err != nil {
		return err
	}
	defer eng.Close()
	return runRank(c, c.wrapFlaky(t), n)
}

// runWorker dials the coordinator (address from -addr or -addr-file),
// learns its rank from the rendezvous, and trains as a worker.
func runWorker(c config) error {
	addr := c.addr
	if addr == "" {
		if c.addrFile == "" {
			return fmt.Errorf("worker needs -addr or -addr-file")
		}
		var err error
		if addr, err = waitAddrFile(c.addrFile, 30*time.Second); err != nil {
			return err
		}
	}
	t, err := transport.DialTCP(addr)
	if err != nil {
		return err
	}
	defer t.Close()
	fmt.Printf("joined as rank %d of %d\n", t.Rank(), t.Size())
	src, err := c.source()
	if err != nil {
		return err
	}
	if c.elastic {
		// A TCP worker can be the chaos victim too: wrap its own
		// endpoint when -chaos-rank names this rank.
		tr := c.wrapFlaky(t)
		if s, err := c.chaosScenario(); err != nil {
			return err
		} else if s != nil && s.Victim == t.Rank() {
			fmt.Printf("chaos: %s (this rank)\n", s)
			tr = transport.NewChaos(tr, transport.ChaosConfig{
				Mode: s.Mode, AtIter: s.AtIter, Peers: s.Peers, StraggleDelay: s.Delay,
			}, 0)
		}
		return runElasticRank(c, tr, src)
	}
	n, eng, err := c.buildRankNet(src, t.Rank(), t.Size())
	if err != nil {
		return err
	}
	defer eng.Close()
	return runRank(c, c.wrapFlaky(t), n)
}

// writeAddrFile publishes the rendezvous address atomically (write to a
// temp name, rename) so a polling worker never reads a partial file.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func waitAddrFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		raw, err := os.ReadFile(path)
		if err == nil && len(strings.TrimSpace(string(raw))) > 0 {
			return strings.TrimSpace(string(raw)), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no coordinator address in %s after %s", path, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// runPredict is the EXPERIMENTS.md scaling study: calibrate the simtime
// cluster model from a measured single-replica run, then for each
// replica count compare the model's predicted iteration speedup with a
// measured in-process distributed run.
func runPredict(c config) error {
	src, err := c.source()
	if err != nil {
		return err
	}
	calIters := c.iters
	if calIters <= 0 {
		calIters = 20
	}

	// Calibration: serial full-batch stepping, which is also the
	// measured baseline (dist with k=1 is bit-identical to it).
	n, eng, err := c.buildRankNet(src, 0, 1)
	if err != nil {
		return err
	}
	s, err := solver.New(c.model.Solver, n)
	if err != nil {
		eng.Close()
		return err
	}
	s.Step(2) // warm caches before timing
	start := time.Now()
	s.Step(calIters)
	serialPer := time.Since(start) / time.Duration(calIters)
	eng.Close()

	elems := 0
	for _, p := range n.Params() {
		elems += p.Count()
	}
	w := simtime.ClusterWorkload{
		ComputeUS:    float64(serialPer.Nanoseconds()) / 1e3,
		BackwardFrac: 0.55,
		ParamElems:   elems,
		ParamTensors: len(n.Params()),
	}
	m := simtime.LocalCluster(runtime.NumCPU())
	fmt.Printf("calibration: %.1f ms/iter serial, %d param elems in %d tensors, %d cores\n",
		float64(serialPer.Microseconds())/1e3, w.ParamElems, w.ParamTensors, runtime.NumCPU())
	fmt.Printf("%-9s %-8s %-6s %-6s %-12s %-12s %-12s %-10s\n",
		"replicas", "reduce", "wire", "fanout", "pred-ms/it", "meas-ms/it", "pred-spdup", "meas-spdup")
	fmt.Printf("%-9d %-8s %-6s %-6s %-12.2f %-12.2f %-12.2f %-10.2f\n",
		1, "-", "-", "-", float64(serialPer.Microseconds())/1e3, float64(serialPer.Microseconds())/1e3, 1.0, 1.0)

	// The design space the model covers: the tree baseline, the relay
	// ring at f32 (pricing the determinism relays), and the compressed
	// ring (the codec buying the relay bytes back). wireScale comes from
	// the codec's own WireLen so the model can never drift from the
	// implementation's framing.
	combos := []struct{ topo, wire string }{
		{dist.TopologyTree, "f32"},
		{dist.TopologyRing, "f32"},
		{dist.TopologyRing, "int8"},
	}
	for _, k := range []int{2, 4} {
		if c.batch%k != 0 {
			fmt.Printf("%-9d skipped: global batch %d not divisible\n", k, c.batch)
			continue
		}
		for _, combo := range combos {
			codec, err := transport.CodecByName(combo.wire)
			if err != nil {
				return err
			}
			scale := float64(codec.WireLen(w.ParamElems)) / float64(w.ParamElems)
			pred := m.PredictEx(w, k, c.fanout, combo.topo, scale)
			cc := c
			cc.reduce, cc.gradWire = combo.topo, combo.wire
			measured, err := timeLocalRun(cc, src, k, calIters)
			if err != nil {
				return err
			}
			fmt.Printf("%-9d %-8s %-6s %-6d %-12.2f %-12.2f %-12.2f %-10.2f\n",
				k, combo.topo, combo.wire, c.fanout, pred.TotalUS/1e3,
				float64(measured.Microseconds())/float64(calIters)/1e3,
				pred.Speedup, float64(serialPer)/(float64(measured)/float64(calIters)))
		}
	}
	return nil
}

// timeLocalRun measures the wall time of iters in-process distributed
// iterations with k replicas (excluding setup).
func timeLocalRun(c config, src layers.Source, k, iters int) (time.Duration, error) {
	group := transport.NewLocalGroup(k)
	nets := make([]*net.Net, k)
	for r := 0; r < k; r++ {
		n, eng, err := c.buildRankNet(src, r, k)
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		nets[r] = n
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var nd *dist.Node
			var err error
			if r == 0 {
				nd, err = dist.NewRoot(group[r], nets[r], c.model.Solver, c.distOptions())
			} else {
				nd, err = dist.NewWorker(group[r], nets[r], c.distOptions())
			}
			if err == nil {
				_, err = nd.Step(iters)
			}
			errs[r] = err
			group[r].Close()
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnncluster:", err)
	os.Exit(1)
}
