package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// threadCPU returns the CPU time the calling OS thread has run so far.
// The caller must hold its OS thread (runtime.LockOSThread). A guest
// kernel with paravirtual steal accounting does not count the time the
// hypervisor runs other guests on the vCPU.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

// processCPU returns the CPU time all threads of the process have run
// so far, steal excluded as for threadCPU.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
