//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in; it adds an
// allocation of its own to some calls, so exact allocation pins skip then.
const raceEnabled = false
