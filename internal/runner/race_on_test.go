//go:build race

package runner

// raceDetectorOn marks builds under `go test -race`, where the detector
// changes allocation behaviour and allocation bounds do not hold.
const raceDetectorOn = true
