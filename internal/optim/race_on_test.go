//go:build race

package optim

// raceEnabled reports whether the race detector is active: it makes
// sync.Pool drop objects at random, so allocation counts mean nothing.
const raceEnabled = true
