//go:build !linux

package main

import "time"

// Without getrusage(RUSAGE_THREAD) the probe falls back to wall time
// per pass: processCPU is a clock, and no thread share is subtracted.
var cpuEpoch = time.Now()

func processCPU() time.Duration { return time.Since(cpuEpoch) }

func threadCPU() time.Duration { return 0 }
