//go:build race

package bench

// raceEnabled reports whether the race detector is on, under which
// sync.Pool drops items at random and allocation counts vary.
const raceEnabled = true
