//go:build race

package store

// raceEnabled reports that the race detector is compiled in. Under it
// sync.Pool deliberately drops a share of Puts, so allocation budgets
// that rely on pooled buffers do not hold.
const raceEnabled = true
