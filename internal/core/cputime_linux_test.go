package core

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time the process has used on all its threads. A
// timing sample taken with it is not billed for the time other processes
// held the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
