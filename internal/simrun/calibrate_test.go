package simrun

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/datastates/mlpoffload/internal/cluster"
)

// e2eDoc is a trimmed bench/e2e report: the fields of report.go that
// calibration reads, plus an end-to-end block it must ignore.
const e2eDoc = `{
 "scale": "full", "seed": 1, "sets": 3,
 "workloads": ["mlp-iobound", "mlp-codec-ckpt", "mlp-smallobj"],
 "runs": [],
 "summary": {
  "mlp-iobound": {
   "end_to_end": {"iter_s": {"median": 0.16, "q1": 0.15, "q3": 0.17, "n": 3, "unit": "s"}},
   "per_layer": {
    "optim.probe_adam_serial_mparams_per_s": {"median": 410, "unit": "Mparam/s"},
    "optim.probe_adam_pool_mparams_per_s": {"median": 730, "unit": "Mparam/s"},
    "aio.probe_op_overhead_us": {"median": 9, "unit": "us"},
    "tiercodec.ratio": {"median": 1, "unit": "ratio"},
    "tiercodec.probe_encode_mbps": {"median": 300, "unit": "MB/s"},
    "tiercodec.probe_decode_mbps": {"median": 500, "unit": "MB/s"}
   },
   "attempted": 10, "failed": 0
  },
  "mlp-codec-ckpt": {
   "per_layer": {
    "optim.probe_adam_serial_mparams_per_s": {"median": 450, "unit": "Mparam/s"},
    "optim.probe_adam_pool_mparams_per_s": {"median": 700, "unit": "Mparam/s"},
    "aio.probe_op_overhead_us": {"median": 12, "unit": "us"},
    "tiercodec.ratio": {"median": 1.22, "unit": "ratio"},
    "tiercodec.probe_encode_mbps": {"median": 800, "unit": "MB/s"},
    "tiercodec.probe_decode_mbps": {"median": 1000, "unit": "MB/s"}
   }
  },
  "mlp-smallobj": {
   "per_layer": {
    "optim.probe_adam_serial_mparams_per_s": {"median": 760, "unit": "Mparam/s"},
    "aio.probe_op_overhead_us": {"median": 7, "unit": "us"}
   }
  }
 }
}`

// TestCalibrationFromBench derives exact rates from given per-layer
// medians of a bench/e2e report.
func TestCalibrationFromBench(t *testing.T) {
	// Trims e2eDoc's summary to the named workloads.
	only := func(wls ...string) []byte {
		var doc map[string]any
		if err := json.Unmarshal([]byte(e2eDoc), &doc); err != nil {
			t.Fatal(err)
		}
		all := doc["summary"].(map[string]any)
		keep := map[string]any{}
		for _, wl := range wls {
			keep[wl] = all[wl]
		}
		doc["summary"] = keep
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		doc  []byte
		want cluster.Calibration
	}{
		{
			// Overhead: the median of 7, 9 and 12 us. Codec: the one
			// workload with ratio > 1, its probes read as raw bytes/s. The
			// Adam probes are not read.
			name: "every workload",
			doc:  []byte(e2eDoc),
			want: cluster.Calibration{OpOverheadSec: 9e-6,
				CodecRatio: 1.22, CodecEncBW: 800e6, CodecDecBW: 1000e6},
		},
		{
			// An even count of overheads: the mean of the middle two.
			name: "even overhead count",
			doc:  only("mlp-iobound", "mlp-codec-ckpt"),
			want: cluster.Calibration{OpOverheadSec: 10.5e-6,
				CodecRatio: 1.22, CodecEncBW: 800e6, CodecDecBW: 1000e6},
		},
		{
			// No workload ran a codec (ratio 1): the codec fields stay
			// zero although the probes measured flate+crc anyway.
			name: "no codec workload",
			doc:  only("mlp-iobound", "mlp-smallobj"),
			want: cluster.Calibration{OpOverheadSec: 8e-6},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := CalibrationFromBench(tc.doc)
			if err != nil {
				t.Fatal(err)
			}
			if !calEqual(got, tc.want) {
				t.Errorf("calibration = %+v\nwant          %+v", got, tc.want)
			}
		})
	}
}

// calEqual compares calibrations to a relative 1e-12, since the unit
// conversions are float multiplications.
func calEqual(a, b cluster.Calibration) bool {
	eq := func(x, y float64) bool { return x == y || math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y)) }
	return eq(a.OpOverheadSec, b.OpOverheadSec) &&
		eq(a.CodecRatio, b.CodecRatio) && eq(a.CodecEncBW, b.CodecEncBW) && eq(a.CodecDecBW, b.CodecDecBW)
}

// TestCalibrationFromBenchRejects: input calibration cannot use is an
// error naming the problem, never a silent uncalibrated run.
func TestCalibrationFromBenchRejects(t *testing.T) {
	for _, tc := range []struct {
		name, doc, wantErr string
	}{
		{"not JSON", `not json`, "invalid character"},
		{"no summary", `{"schema": 1, "run": "pr8", "go_benchmarks": [], "reports": {}}`, `no "summary"`},
		{"nothing derivable", `{"summary": {"mlp-iobound": {"end_to_end": {"iter_s": {"median": 0.16}}}}}`, "no per-layer probe"},
		{"only Adam probes", `{"summary": {"mlp-iobound": {"per_layer": {"optim.probe_adam_serial_mparams_per_s": {"median": 410}, "optim.probe_adam_pool_mparams_per_s": {"median": 730}}}}}`, "no per-layer probe"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cal, err := CalibrationFromBench([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if !cal.IsZero() {
				t.Errorf("calibration = %+v alongside an error, want zero", cal)
			}
		})
	}
}
