package engine_test

import (
	"syscall"
	"unsafe"
)

// threadCPUs returns the CPUs the calling thread may run on
// (sched_getaffinity), or nil if the call fails.
func threadCPUs() []int {
	var set [16]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < 64*len(set); c++ {
		if set[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}
