package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is shared, and its tenants disturb
// timings in two ways. The hypervisor hands our virtual CPUs to others for
// spells of seconds (steal), which stretches wall time by up to 40%; and a
// busy neighbour on a sibling hyperthread slows our instructions by up to
// half. Either moves a figure by more than any bound a regression check
// could use.
//
// So a call's wall time is taken less the steal the kernel reports over it,
// and scaled to a reference speed: after every call a fixed pure-Go kernel
// runs on a locked thread and its thread CPU time is read. Its time over
// calibRef is one speed sample. One 2 ms sample is noisier than the speed
// changes from one call to the next, so calls are scaled in blocks of
// whole cycles and at least speedBlockCalls calls: every call of a block is
// divided by the median of the samples taken around the block, and is then
// in reference seconds. The kernel uses nothing of the repository, so no
// change to the repository moves it. Time a call spends waiting still
// counts, as it should.

// calibRef is one speed sample. One 2 ms sample is noisier than the speed
// changes from one call to the next, so every call of a phase of the run
// (the set-ups, the timed loop, the traced loop) is divided by the same
// factor, the median of the phase's samples, and is then in reference
// seconds. The kernel uses nothing of the repository, so no change to the
// repository moves it. Time a call spends waiting still counts, as it
// should.

// calibRef is the kernel's thread CPU time on an uncontended 2-vCPU Intel
// Xeon container, so that figures on such a machine read as plain seconds.
const calibRef = 2 * time.Millisecond

const calibIters = 250_000

// calibTable is the kernel's working set, 1 MiB, so that it feels the
// cache and memory contention the workloads feel as well as the ALU's.
var calibTable [1 << 18]uint32

var calibSink uint32

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	// clock_gettime cannot fail for this clock with a valid pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrate runs the kernel once and returns the CPU time it took.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	x := uint64(0x9E3779B97F4A7C15)
	var acc uint32
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (uint64(len(calibTable)) - 1)
		if x&3 == 0 {
			calibTable[j] += uint32(x)
		} else {
			acc ^= calibTable[j]
		}
	}
	calibSink = acc
	return threadCPU() - t0
}

// speedBlockCalls is the fewest calls that share a speed factor.
const speedBlockCalls = 5

// speedBlock is the number of calls that share a speed factor: whole cycles
// of cycle calls, at least speedBlockCalls.
func speedBlock(cycle int) int {
	return cycle * ((speedBlockCalls + cycle - 1) / cycle)
}

// speedMeter collects the speed samples of one phase of the run.
type speedMeter struct{ samples []float64 }

func newSpeedMeter() *speedMeter {
	m := &speedMeter{}
	m.sample()
	return m
}

// sample runs the kernel and records its time over calibRef. Above 1 means
// slower than the reference.
func (m *speedMeter) sample() {
	m.samples = append(m.samples, float64(calibrate())/float64(calibRef))
}

// scale sets the speed factor of calls, which alternated with the samples:
// the meter's sample i was taken before call i and sample i+1 after it.
// Each block of block calls gets the median of the samples around it.
func (m *speedMeter) scale(calls []callSample, block int) {
	for lo := 0; lo < len(calls); lo += block {
		hi := min(lo+block, len(calls))
		f := quantile(m.samples[lo:hi+1], 0.5)
		for i := lo; i < hi; i++ {
			calls[i].speed = f
		}
	}
}

// stealTime is the steal time per virtual CPU since boot: the "steal"
// column of /proc/stat's cpu line over the number of CPUs listed. It is 0
// where the file is missing, which leaves wall time as it is.
func stealTime() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	var steal int64
	cpus := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "cpu") {
			break
		}
		if fields[0] != "cpu" {
			cpus++
		} else if len(fields) > 8 {
			steal, _ = strconv.ParseInt(fields[8], 10, 64)
		}
	}
	if cpus == 0 {
		return 0
	}
	// /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
	return time.Duration(steal) * 10 * time.Millisecond / time.Duration(cpus)
}
