//go:build !race

package memsys

// raceEnabled reports whether the race detector is active. Allocation
// assertions are skipped under it: the xpoint solver's sync.Pool drops
// Puts at random when racing, so pooled paths allocate
// nondeterministically.
const raceEnabled = false
