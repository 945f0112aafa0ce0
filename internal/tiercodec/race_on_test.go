//go:build race

package tiercodec

// raceEnabled reports whether the race detector is active; allocation
// ceilings are skipped under -race (instrumentation allocates).
const raceEnabled = true
