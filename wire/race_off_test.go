//go:build !race

package wire

// raceDetectorOn marks builds under `go test -race`; see race_on_test.go.
const raceDetectorOn = false
