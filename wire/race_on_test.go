//go:build race

package wire

// raceDetectorOn marks builds under `go test -race`. The wire digest golden
// checks only its cheap programs there (the detector makes analyzing the
// full corpus an order of magnitude slower); their lines are still compared
// against the full golden file.
const raceDetectorOn = true
