//go:build !linux

package engine_test

// threadCPUs reports nothing where the thread's affinity cannot be read.
func threadCPUs() []int { return nil }
