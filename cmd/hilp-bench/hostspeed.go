package main

import (
	"runtime"
	"sort"
	"time"
)

// The shared host this benchmark was calibrated on switches between speeds:
// for minutes at a time it runs identical code up to twice as slow, which
// would swamp the changes the benchmark exists to show. So each run times a
// fixed reference kernel for half a second before it sets up and again
// after it has closed down, while none of the workload runs, and reports
// host time in reference seconds: host seconds scaled by referenceKernelSec
// over the mean of the two medians. The program never runs while the kernel
// is timed, so a change to it cannot move the factor; standard error shows
// the factor.

// referenceKernelSec is the kernel's median time on the reference host (2
// vCPUs of a shared x86-64 VM) at its usual speed.
const referenceKernelSec = 55e-6

// kernelSec times the kernel back to back for half a second and returns the
// median.
func kernelSec() float64 {
	runtime.GC()
	buf := make([]int, 1024)
	var xs []float64
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		t := time.Now()
		kernel(buf)
		xs = append(xs, time.Since(t).Seconds())
	}
	return median(xs)
}

// kernel sorts a fixed pseudo-random sequence twice: branchy integer work on
// cache-resident data, like the solvers' schedule decoding.
func kernel(buf []int) {
	x := uint64(88172645463325252)
	for round := 0; round < 2; round++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = int(x >> 1)
		}
		sort.Ints(buf)
	}
}

// inReferenceTime converts a metric value to reference seconds by its unit:
// times scale by the factor, rates by its inverse, everything else stays.
func inReferenceTime(v float64, unit string, scale float64) float64 {
	switch unit {
	case "s":
		return v * scale
	case "ops/s", "1/s":
		return v / scale
	}
	return v
}
