//go:build !race

package predict

// raceEnabled reports whether the race detector is active; allocation
// assertions only hold in normal builds.
const raceEnabled = false
