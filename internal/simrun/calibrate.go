// Calibration: deriving simulator inputs from a bench/e2e report (the
// file `go run ./bench/e2e -out report.json` writes). The simulator's
// hardware numbers come from the paper's Table 1; the quantities Table 1
// does not provide — per-op submission overhead, codec ratios and
// transform throughputs — are exactly the ones the benchmark's layer
// probes measure, so the matrix reads them from there. The Adam kernel
// probe is not read: one process's kernel rate on the benchmark machine
// is not a Testbed node's update rate, which stays Table 1's.
package simrun

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"github.com/datastates/mlpoffload/internal/cluster"
	"github.com/datastates/mlpoffload/internal/metrics"
)

// e2eReport is the subset of a bench/e2e report calibration reads: the
// median of every per-layer metric, by workload.
type e2eReport struct {
	Summary map[string]struct {
		PerLayer map[string]struct {
			Median float64 `json:"median"`
		} `json:"per_layer"`
	} `json:"summary"`
}

// LoadCalibration reads a bench/e2e report file and derives a Calibration.
func LoadCalibration(path string) (cluster.Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return cluster.Calibration{}, err
	}
	cal, err := CalibrationFromBench(data)
	if err != nil {
		return cluster.Calibration{}, fmt.Errorf("%s: %w", path, err)
	}
	return cal, nil
}

// CalibrationFromBench derives measured rates from one bench/e2e report.
// Quantities whose probe is absent stay zero (the testbed's defaults
// apply). Input that is not JSON, a document with no summary, and a
// report from which no quantity can be derived are errors.
func CalibrationFromBench(data []byte) (cluster.Calibration, error) {
	var rep e2eReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return cluster.Calibration{}, fmt.Errorf("calibrate: %w", err)
	}
	if rep.Summary == nil {
		return cluster.Calibration{}, errors.New("calibrate: no \"summary\": not a bench/e2e report")
	}
	var cal cluster.Calibration
	var overheads []float64
	for _, wl := range metrics.SortedKeys(rep.Summary) {
		layer := func(name string) float64 { return rep.Summary[wl].PerLayer[name].Median }

		// Per-op submission overhead: submit-to-done of a 4 KiB read on an
		// idle in-memory tier, the fixed cost batching amortizes.
		if us := layer("aio.probe_op_overhead_us"); us > 0 {
			overheads = append(overheads, us)
		}
		// Codec: the probes time the transforms alone, in raw MB/s, so
		// they are the transform throughputs directly. Only a workload
		// that runs a codec has a measured ratio.
		if r := layer("tiercodec.ratio"); r > 1 && cal.CodecRatio == 0 {
			cal.CodecRatio = r
			cal.CodecEncBW = 1e6 * layer("tiercodec.probe_encode_mbps")
			cal.CodecDecBW = 1e6 * layer("tiercodec.probe_decode_mbps")
		}
	}
	if n := len(overheads); n > 0 {
		sort.Float64s(overheads)
		cal.OpOverheadSec = 1e-6 * (overheads[(n-1)/2] + overheads[n/2]) / 2
	}
	if cal.IsZero() {
		return cluster.Calibration{}, errors.New("calibrate: no per-layer probe median in the report to derive a rate from")
	}
	return cal, nil
}
