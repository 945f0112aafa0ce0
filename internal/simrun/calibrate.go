// Calibration: deriving simulator inputs from measured BENCH trajectory
// documents (the schema-1 JSON cmd/benchmerge emits in CI). The simulator's
// hardware numbers come from the paper's Table 1; the quantities Table 1
// does not provide — kernel rates, per-op submission overhead, codec
// ratios and transform throughputs — are exactly the ones the bench
// pipeline measures on every push, so the matrix reads them from there.
package simrun

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"github.com/datastates/mlpoffload/internal/cluster"
)

// benchDoc is the subset of the schema-1 BENCH document calibration reads.
type benchDoc struct {
	Schema       int    `json:"schema"`
	Run          string `json:"run"`
	GoBenchmarks []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"go_benchmarks"`
	Reports map[string]json.RawMessage `json:"reports"`
}

// seqFetchReport is the iobench -seq report shape (cmd/iobench).
type seqFetchReport struct {
	Config struct {
		ObjectBytes int `json:"object_bytes"`
		Batch       int `json:"batch"`
	} `json:"config"`
	Results []struct {
		Mode    string  `json:"mode"`
		Ops     int64   `json:"ops"`
		AvgOpUS float64 `json:"avg_op_us"`
	} `json:"results"`
}

// codecBenchReport is the iobench -codec report shape (cmd/iobench).
type codecBenchReport struct {
	Config struct {
		TierBW float64 `json:"tier_bw_bytes_per_sec"`
	} `json:"config"`
	Results []struct {
		Mode      string  `json:"mode"`
		WriteMBps float64 `json:"write_mbps"`
		ReadMBps  float64 `json:"read_mbps"`
		Ratio     float64 `json:"compression_ratio"`
	} `json:"results"`
}

// LoadCalibration reads a BENCH_*.json file and derives a Calibration.
func LoadCalibration(path string) (cluster.Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return cluster.Calibration{}, err
	}
	return CalibrationFromBench(data)
}

// CalibrationFromBench derives measured rates from one schema-1 BENCH
// document. Quantities whose source benchmark is absent stay zero (the
// testbed's defaults apply); an unparseable or wrong-schema document is an
// error.
func CalibrationFromBench(data []byte) (cluster.Calibration, error) {
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return cluster.Calibration{}, fmt.Errorf("calibrate: %w", err)
	}
	if doc.Schema != 1 {
		return cluster.Calibration{}, fmt.Errorf("calibrate: unsupported BENCH schema %d", doc.Schema)
	}
	var cal cluster.Calibration

	// Adam kernel rate: the StepFP16KernelPool benchmark reports MB/s of
	// optimizer-state traffic at 14 B/param (P+M+V+G16); take the best
	// variant (serial vs pooled — whichever this machine ran faster).
	for _, b := range doc.GoBenchmarks {
		if !strings.HasPrefix(b.Name, "BenchmarkStepFP16KernelPool") {
			continue
		}
		if mbps := b.Metrics["MB/s"]; mbps > 0 {
			if pps := mbps * 1e6 / 14; pps > cal.UpdateParamsPerSec {
				cal.UpdateParamsPerSec = pps
			}
		}
	}

	// Per-op submission overhead: the seq-fetch scenario measures the same
	// bytes per-object (one op each) and coalesced (one op per batch); the
	// per-object latency difference is the fixed cost batching amortizes.
	// Reports from before the descriptor cache was removed (the committed
	// bench/BENCH_pr8.json) also carry an "fdcache" mode; prefer it as the
	// singleton baseline there, because it read the same cached
	// descriptors as that report's coalesced mode, so the difference is
	// submission overhead alone.
	if raw, ok := doc.Reports["iobench-seq-fetch"]; ok {
		var rep seqFetchReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return cluster.Calibration{}, fmt.Errorf("calibrate: iobench-seq-fetch: %w", err)
		}
		batch := rep.Config.Batch
		if batch < 1 {
			batch = 1
		}
		var single, coalesced float64
		for _, r := range rep.Results {
			switch r.Mode {
			case "per-object":
				if single == 0 {
					single = r.AvgOpUS
				}
			case "fdcache":
				single = r.AvgOpUS
			case "coalesced":
				coalesced = r.AvgOpUS / float64(batch)
			}
		}
		if single > 0 && coalesced > 0 && single > coalesced {
			cal.OpOverheadSec = (single - coalesced) * 1e-6
		}
	}

	// Codec: ratio plus encode/decode CPU throughput, inverted from the
	// effective bandwidths — 1/effective = 1/(ratio*device) + 1/transform.
	if raw, ok := doc.Reports["iobench-codec"]; ok {
		var rep codecBenchReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return cluster.Calibration{}, fmt.Errorf("calibrate: iobench-codec: %w", err)
		}
		dev := rep.Config.TierBW
		for _, r := range rep.Results {
			if r.Mode == "off" || r.Ratio <= 1 {
				continue
			}
			cal.CodecRatio = r.Ratio
			cal.CodecEncBW = transformBW(r.WriteMBps*1e6, r.Ratio, dev)
			cal.CodecDecBW = transformBW(r.ReadMBps*1e6, r.Ratio, dev)
			break
		}
	}
	return cal, nil
}

// transformBW inverts the serial pipeline model: with effective raw-byte
// throughput eff over a device moving wire bytes at dev, the transform's
// throughput x satisfies 1/eff = 1/(ratio*dev) + 1/x. Returns 0 (free)
// when the measurement is missing or at/above the device ceiling.
func transformBW(eff, ratio, dev float64) float64 {
	if eff <= 0 || dev <= 0 {
		return 0
	}
	denom := 1/eff - 1/(ratio*dev)
	if denom <= 0 {
		return 0
	}
	return 1 / denom
}
