// Package cluster models the hardware testbeds of the paper (Table 1):
// GPU nodes, host memory, D2H links, node-local NVMe, remote PFS, and the
// compute-rate constants needed to convert work into simulated time.
//
// Calibration policy: bandwidths are the Table 1 numbers verbatim. The two
// compute-rate anchors the paper quotes are encoded explicitly — the
// no-offload GPU update rate (~40000 Mparams/s) and the in-host CPU update
// rate (~8000 Mparams/s per node) — plus the FP16→FP32 CPU conversion
// throughput (65 GB/s on Testbed-1). Everything else is derived.
package cluster

// GiB expresses byte quantities.
const GiB = 1 << 30

// GB is the decimal gigabyte used for bandwidth figures (GB/s in the paper
// are decimal).
const GB = 1e9

// GPU describes one accelerator.
type GPU struct {
	Name     string
	MemBytes int64
	// D2HBandwidth is the pinned device<->host transfer bandwidth in
	// bytes/second (per GPU).
	D2HBandwidth float64
	// TFLOPS is the sustained mixed-precision training throughput used by
	// the compute-time model.
	TFLOPS float64
}

// StorageTierSpec describes one storage path of a node.
type StorageTierSpec struct {
	Name       string
	ReadBW     float64 // bytes/second
	WriteBW    float64 // bytes/second
	SharedNode bool    // true when all workers on a node share the device
	// InterferenceAlpha parameterizes the efficiency curve
	// eff(n)=1/(1+alpha*(n-1)) observed under concurrent access (Fig. 4).
	InterferenceAlpha float64
	// Persistent reports whether data survives job teardown (PFS yes,
	// node-local NVMe no) — relevant for checkpoint pre-staging.
	Persistent bool
}

// MinBW returns min(read, write) — the bandwidth the paper's performance
// model (Eq. 1) uses for subgroup placement.
func (s StorageTierSpec) MinBW() float64 {
	if s.ReadBW < s.WriteBW {
		return s.ReadBW
	}
	return s.WriteBW
}

// Testbed is one evaluation platform (Table 1).
type Testbed struct {
	Name         string
	GPUsPerNode  int
	GPU          GPU
	CPUCores     int
	HostMemBytes int64
	NVMe         StorageTierSpec
	PFS          StorageTierSpec
	// CPUUpdateParamsPerSec is the full-node Adam update rate when all
	// state is resident in host memory (paper: ~8000 Mparams/s).
	CPUUpdateParamsPerSec float64
	// GPUUpdateParamsPerSec is the on-GPU update rate (paper: ~40000
	// Mparams/s), used only for no-offload reference points.
	GPUUpdateParamsPerSec float64
	// CPUConvertBytesPerSec is the FP16->FP32 conversion throughput
	// (paper: 65 GB/s on Testbed-1).
	CPUConvertBytesPerSec float64
	// InterconnectBW is the per-node injection bandwidth for inter-node
	// collectives (Slingshot/Infiniband class), bytes/second.
	InterconnectBW float64
}

// Testbed1 returns the JLSE 4xH100-80GB platform.
func Testbed1() Testbed {
	return Testbed{
		Name:         "Testbed-1 (JLSE 4xH100)",
		GPUsPerNode:  4,
		GPU:          GPU{Name: "H100-80GB", MemBytes: 80 * GiB, D2HBandwidth: 55 * GB, TFLOPS: 273},
		CPUCores:     96,
		HostMemBytes: 512 * GiB,
		NVMe: StorageTierSpec{
			Name: "nvme", ReadBW: 6.9 * GB, WriteBW: 5.3 * GB,
			SharedNode: true, InterferenceAlpha: 0.08, Persistent: false,
		},
		PFS: StorageTierSpec{
			Name: "pfs", ReadBW: 3.6 * GB, WriteBW: 3.6 * GB,
			SharedNode: true, InterferenceAlpha: 0.05, Persistent: true,
		},
		CPUUpdateParamsPerSec: 8000e6,
		GPUUpdateParamsPerSec: 40000e6,
		CPUConvertBytesPerSec: 65 * GB,
		InterconnectBW:        25 * GB,
	}
}

// Testbed2 returns the ALCF Polaris 4xA100-40GB platform.
func Testbed2() Testbed {
	return Testbed{
		Name:         "Testbed-2 (Polaris 4xA100)",
		GPUsPerNode:  4,
		GPU:          GPU{Name: "A100-40GB", MemBytes: 40 * GiB, D2HBandwidth: 25 * GB, TFLOPS: 85},
		CPUCores:     32,
		HostMemBytes: 512 * GiB,
		NVMe: StorageTierSpec{
			Name: "nvme", ReadBW: 13.5 * GB, WriteBW: 4.8 * GB,
			SharedNode: true, InterferenceAlpha: 0.08, Persistent: false,
		},
		PFS: StorageTierSpec{
			Name: "pfs", ReadBW: 6.9 * GB, WriteBW: 13.7 * GB,
			SharedNode: true, InterferenceAlpha: 0.05, Persistent: true,
		},
		CPUUpdateParamsPerSec: 6000e6, // 32 EPYC cores vs 96 Xeon cores
		GPUUpdateParamsPerSec: 30000e6,
		CPUConvertBytesPerSec: 40 * GB,
		InterconnectBW:        25 * GB, // Slingshot-10 class
	}
}

// AggregateGPUMem returns total GPU memory of one node.
func (t Testbed) AggregateGPUMem() int64 {
	return int64(t.GPUsPerNode) * t.GPU.MemBytes
}

// RuntimeReservedHostBytes estimates the host memory consumed by ZeRO-3
// runtime structures (gradient accumulation, all-reduce buckets, pinned
// staging). The paper reports 250-350 GB proportional to model size for
// 40B-120B models; we interpolate linearly in parameter count.
func (t Testbed) RuntimeReservedHostBytes(params int64) int64 {
	// 300 GiB at 40B params, 350 GiB at 120B params, clamped (the paper
	// reports 250-350 GB of ZeRO-3 runtime structures plus pinned staging).
	const (
		loP = 40e9
		hiP = 120e9
		loB = 300.0 * GiB
		hiB = 350.0 * GiB
	)
	p := float64(params)
	frac := (p - loP) / (hiP - loP)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return int64(loB + frac*(hiB-loB))
}

// HostCacheBytes returns the host memory available for caching optimizer
// subgroups after runtime reservations and the FP16 gradient-accumulation
// buffer (kept on host by MLP-Offload) are subtracted. Never negative.
func (t Testbed) HostCacheBytes(params int64, keepFP16Grads bool) int64 {
	free := t.HostMemBytes - t.RuntimeReservedHostBytes(params)
	if keepFP16Grads {
		free -= params * 2
	}
	if free < 0 {
		free = 0
	}
	return free
}

// CollectiveTime returns the cost of a ring all-gather/reduce-scatter of
// size bytes across n participants at linkBW bytes/s per participant:
// (n-1)/n * size / linkBW. n <= 1 costs zero.
func CollectiveTime(size float64, n int, linkBW float64) float64 {
	if n <= 1 || linkBW <= 0 {
		return 0
	}
	return float64(n-1) / float64(n) * size / linkBW
}
