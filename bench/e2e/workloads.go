package main

import (
	"fmt"

	"github.com/datastates/mlpoffload/internal/tiercodec"
)

// Throttle rates of the emulated devices, read/write bytes per second.
// They are part of the benchmark's definition: slow enough that the
// throttled workloads are I/O-bound on a 2-core box, which is also what
// makes them repeat.
const (
	nvmeReadBW, nvmeWriteBW = 400e6, 300e6
	pfsReadBW, pfsWriteBW   = 200e6, 200e6
	ckptReadBW, ckptWriteBW = 200e6, 200e6
	// Efficiency loss under concurrent streams (1/(1+alpha*(n-1))) on the
	// shared-node workload, the values cmd/mlptrain uses.
	nvmeAlpha, pfsAlpha = 0.08, 0.05
)

const (
	hostCacheSlots = 3
	warmupIters    = 2
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// baseline selects engine.BaselineConfig on nvme alone; otherwise
	// engine.MLPConfig on nvme+pfs.
	baseline bool
	// ranks > 1 runs train.NewNode with that many workers sharing the
	// tiers; the scale's parameters are split between them.
	ranks int
	// subgroups is the object count the shard is cut into (per node).
	subgroups int
	throttled bool
	// fixedPlacement keeps the nominal bandwidth-proportional split
	// (engine.Config.AdaptivePlacement off). The throttled MLP workloads
	// set it because the adaptive estimator does not settle on these
	// devices: it times each op from submission, so lock waits, queueing
	// and token-bucket bursts read as bandwidth changes, the plan flips
	// (measured: in 9 of 10 iterations of mlp-iobound), every flip starts
	// migrations that disturb the next measurement, and iter_s then spreads
	// 4-10% run to run against 0.2% with the split held. mlp-smallobj keeps
	// the adaptive path: with 96 small objects a flip moves 1% of the state.
	fixedPlacement bool
	// codec, when enabled, is set on every training tier and wrapped
	// around the checkpoint tier.
	codec tiercodec.Spec
	// ckptEvery > 0 checkpoints every that many timed iterations to a
	// throttled ckpt tier and restores the last one when the run ends.
	ckptEvery int
}

var flateCRC = tiercodec.Spec{Compression: "flate", Integrity: true}

// workloads is the benchmark's fixed set; BENCHMARK.json names the same
// five (the package test holds the two together).
var workloads = []workload{
	{
		name: "mlp-iobound", ranks: 1, subgroups: 12, throttled: true, fixedPlacement: true,
		why: "paper regime: throttled nvme+pfs, 12 large objects; placement, cache order, prefetch overlap and aio scheduling decide the time, kernels almost none",
	},
	{
		name: "mlp-smallobj", ranks: 1, subgroups: 96, throttled: false,
		why: "same shard as 96 small objects on unthrottled files: per-op cost (pipeline, pools, aio queueing, syscalls, Adam/fp16 kernels) decides; an I/O-scheduling change predicts no move",
	},
	{
		name: "baseline-iobound", ranks: 1, subgroups: 12, throttled: true, baseline: true,
		why: "paper comparator (ZeRO-3 shape): same layers used differently - FP32 gradient flush in backward, 16 B/param fetch, nvme only, zero cache hits; shows an MLP gain that costs this path",
	},
	{
		name: "mlp-2rank-shared", ranks: 2, subgroups: 12, throttled: true, fixedPlacement: true,
		why: "two ranks share the throttled tiers under node locks: tierlock and cross-engine contention do work here and none in the single-rank workloads; the slowest rank sets the time",
	},
	{
		name: "mlp-codec-ckpt", ranks: 1, subgroups: 12, throttled: true, fixedPlacement: true, codec: flateCRC, ckptEvery: 5,
		why: "mlp-iobound plus flate+crc on every tier and a checkpoint every 5 iterations, then a restore: CPU traded for wire bytes, checkpoint writes beside fetch/flush, the restore read path",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (see -list)", name)
}

// scale sizes every workload. One run measures for seconds, or for
// exactly iters timed iterations when iters > 0.
type scale struct {
	name   string
	params int64 // per node
	// probe is how long each layer probe may run.
	probeMillis int
}

var scales = map[string]scale{
	// 8M parameters is 96 MB of FP32 optimizer state at 12 B/param, four
	// times what the host cache holds, and small enough that every
	// workload completes 25 or more iterations in the 12 s a run measures.
	"full": {name: "full", params: 8_000_000, probeMillis: 120},
	// smoke exists for `go test`: every code path in well under a second
	// per workload. Its timings mean nothing.
	"smoke": {name: "smoke", params: 200_000, probeMillis: 2},
}

// subgroupParams is the subgroup size that cuts one rank's shard of wl
// into its share of the workload's objects.
func (s scale) subgroupParams(wl workload) int64 {
	perRank := s.params / int64(wl.ranks)
	objs := int64(wl.subgroups / wl.ranks)
	return (perRank + objs - 1) / objs
}
