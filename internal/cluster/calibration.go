package cluster

// Calibration carries machine-measured rates derived from the per-layer
// probes of a bench/e2e report (see simrun.CalibrationFromBench). Zero
// fields mean "no measurement available — keep the scenario's default".
type Calibration struct {
	// OpOverheadSec is the fixed per-I/O-op submission cost in seconds —
	// the cost vectored coalescing amortizes (aio.probe_op_overhead_us).
	OpOverheadSec float64
	// CodecRatio is the measured compression ratio (raw/wire) and
	// CodecEncBW/CodecDecBW the CPU encode/decode throughputs in raw
	// bytes/second (tiercodec.ratio and tiercodec.probe_{encode,decode}_mbps).
	CodecRatio float64
	CodecEncBW float64
	CodecDecBW float64
}

// IsZero reports whether no measurement was derived.
func (c Calibration) IsZero() bool {
	return c == Calibration{}
}
