//go:build race

package ha

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation makes sync.Pool allocate, so allocation-count
// properties only hold without it.
const raceEnabled = true
