//go:build race

package predict

// raceEnabled: see race_off_test.go.
const raceEnabled = true
