//go:build race

package specabsint

// raceDetectorOn marks builds under `go test -race`. The corpus digest
// golden checks only its cheap kernels there (the detector makes the full
// corpus an order of magnitude slower); their lines are still compared
// against the full golden file.
const raceDetectorOn = true
