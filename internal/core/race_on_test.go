//go:build race

package core

// raceDetectorOn marks builds under `go test -race`, where the detector
// makes analyses an order of magnitude slower and tests shrink their
// sweeps.
const raceDetectorOn = true
