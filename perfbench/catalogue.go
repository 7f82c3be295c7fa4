package main

// The metric catalogue: every metric the benchmark can print, with its
// unit, its better direction and — for per-layer metrics — the
// end-to-end metric and workload it should move and the workload where
// the prediction is no change. BENCHMARK.json at the repository root
// lists the same names, units and directions; TestCatalogueMatchesManifest
// keeps the two in step.

// Workload names.
const (
	wTrain   = "train-lenet-coarse"
	wServe   = "serve-lenet-open"
	wCluster = "cluster-lenet-tcp"
)

// metric describes one printed metric.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (unused
	// for per-layer metrics).
	Bound float64
	// Moves names the end-to-end metrics and workloads a per-layer
	// metric should move; NoChange names the workload where it should
	// not move.
	Moves    string
	NoChange string
}

// End-to-end metric names, shared by every workload. A workload's
// "operation" is one training step (train, cluster) or one request
// (serve); samples_per_s counts training samples, or for serve the
// requests answered within the latency limit.
const (
	mSetup   = "setup_s"
	mRSS     = "mem.peak_rss_mb"
	mRate    = "samples_per_s"
	mOpP50   = "op_ms.p50"
	mOpTail  = "op_ms.tail"
	mOverPct = "trace.overhead_pct"
	mDropped = "trace.spans_dropped"
)

var endToEnd = []metric{
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: mRSS, Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: mRate, Unit: "samples/s", Better: "higher", Bound: 0.25},
	{Name: mOpP50, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mOpTail, Unit: "ms", Better: "lower", Bound: 0.25},
}

// Short forms of the mapping text.
const (
	trainStep   = "op_ms.*, samples_per_s on " + wTrain
	clusterStep = "op_ms.*, samples_per_s on " + wCluster
	serveLat    = "op_ms.*, samples_per_s on " + wServe
)

// layerNames are the LeNet layers in network order; "data" stands for
// the Data layer (named "mnist" in the zoo net).
var layerNames = []string{"data", "conv1", "pool1", "conv2", "pool2", "ip1", "relu1", "ip2", "loss"}

// flopLayers are the layers that report FLOPs (layers.Coster).
var flopLayers = []string{"conv1", "conv2", "ip1", "ip2"}

var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var out []metric
	for _, l := range layerNames {
		m := metric{Name: "layers." + l + ".fwd_us", Unit: "us", Better: "lower",
			Moves: trainStep + "; " + clusterStep + "; " + serveLat, NoChange: "none (all workloads run forward)"}
		if l == "loss" {
			m.Moves = trainStep + "; " + clusterStep
			m.NoChange = wServe + " (serving strips the loss)"
		}
		out = append(out, m)
	}
	for _, l := range layerNames[1:] {
		out = append(out, metric{Name: "layers." + l + ".bwd_us", Unit: "us", Better: "lower",
			Moves: trainStep + "; " + clusterStep, NoChange: wServe + " (forward only)"})
	}
	for _, l := range flopLayers {
		out = append(out,
			metric{Name: "layers." + l + ".fwd_gflops", Unit: "GFLOP/s", Better: "higher",
				Moves: trainStep + "; " + clusterStep + "; " + serveLat, NoChange: "none (all workloads run forward)"},
			metric{Name: "layers." + l + ".bwd_gflops", Unit: "GFLOP/s", Better: "higher",
				Moves: trainStep + "; " + clusterStep, NoChange: wServe + " (forward only)"})
	}
	coreNoChange := wCluster + ", " + wServe + " (both bypass core.Coarse)"
	out = append(out,
		metric{Name: "core.reduce_us", Unit: "us", Better: "lower", Moves: trainStep, NoChange: coreNoChange},
		metric{Name: "core.util", Unit: "ratio", Better: "higher", Moves: trainStep, NoChange: coreNoChange},
		metric{Name: "core.imbalance", Unit: "ratio", Better: "lower", Moves: trainStep, NoChange: coreNoChange},
		metric{Name: "core.scratch_bytes", Unit: "bytes", Better: "lower", Moves: "mem.peak_rss_mb on " + wTrain, NoChange: coreNoChange},
		metric{Name: "net.memory_bytes", Unit: "bytes", Better: "lower",
			Moves: "mem.peak_rss_mb on " + wTrain + ", " + wCluster + ", " + wServe, NoChange: "none"},
		metric{Name: "solver.update_us", Unit: "us", Better: "lower",
			Moves:    "op_ms.p50 on " + wTrain + " (serial driver section); op_ms.p50 on " + wCluster + " (root only, workers wait for the bcast)",
			NoChange: wServe + " (no solver)"},
		metric{Name: "serve.batch_mean", Unit: "count", Better: "higher", Moves: serveLat, NoChange: wTrain + ", " + wCluster},
		metric{Name: "serve.deadline_flush_ratio", Unit: "ratio", Better: "lower", Moves: serveLat, NoChange: wTrain + ", " + wCluster},
		metric{Name: "serve.infer_ms.p50", Unit: "ms", Better: "lower", Moves: serveLat, NoChange: wTrain + ", " + wCluster},
		metric{Name: "serve.queue_ms.p50", Unit: "ms", Better: "lower", Moves: serveLat, NoChange: wTrain + ", " + wCluster},
		metric{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: serveLat, NoChange: wTrain + ", " + wCluster},
		metric{Name: "serve.gen_lag_ms.max", Unit: "ms", Better: "lower", Moves: "op_ms.* on " + wServe + " (a late generator shifts due times)", NoChange: wTrain + ", " + wCluster},
		metric{Name: "dist.recv_wait_ms", Unit: "ms", Better: "lower", Moves: clusterStep, NoChange: wTrain + ", " + wServe},
		metric{Name: "dist.comm_ms", Unit: "ms", Better: "lower", Moves: clusterStep, NoChange: wTrain + ", " + wServe},
		metric{Name: "dist.compute_ms", Unit: "ms", Better: "lower", Moves: clusterStep, NoChange: wTrain + ", " + wServe},
		metric{Name: "transport.send_us", Unit: "us", Better: "lower", Moves: clusterStep, NoChange: wTrain + ", " + wServe},
		metric{Name: "transport.frames_per_iter", Unit: "count", Better: "lower", Moves: clusterStep, NoChange: wTrain + ", " + wServe},
		metric{Name: "transport.bytes_per_iter", Unit: "bytes", Better: "lower", Moves: clusterStep, NoChange: wTrain + ", " + wServe},
		metric{Name: "transport.grad_bytes_per_iter", Unit: "bytes", Better: "lower", Moves: clusterStep, NoChange: wTrain + ", " + wServe},
		metric{Name: mOverPct, Unit: "%", Better: "lower", Moves: "none (end-to-end runs are untraced)", NoChange: "all workloads"},
		metric{Name: mDropped, Unit: "count", Better: "lower", Moves: "none (must stay 0)", NoChange: "all workloads"},
	)
	return out
}
