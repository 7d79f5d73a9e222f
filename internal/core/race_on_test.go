//go:build race

package core

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// quarter of the items put back at random.
const raceEnabled = true
