//go:build !linux

package core

import "time"

var processStart = time.Now()

// cpuTime falls back to wall-clock time where the process's CPU time is
// not read.
func cpuTime() time.Duration { return time.Since(processStart) }
