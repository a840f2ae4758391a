//go:build linux

package main

import (
	"syscall"
	"time"
)

const rusageThread = 1 // RUSAGE_THREAD, absent from package syscall

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the CPU time this process has used, all threads.
func processCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPU is the CPU time of the calling thread alone; callers pin
// their goroutine with runtime.LockOSThread first.
func threadCPU() time.Duration { return rusageCPU(rusageThread) }
