package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared with other tenants: how fast
// it runs the same code drifts by ±25% over tens of seconds. Every
// reported time and rate is therefore scaled to a host of fixed speed, as
// measured by a probe the measurement loop runs between operations while
// the program is idle. The probe is a fixed run of a tiny stack machine:
// switch dispatch, data-dependent branches, map lookups and small-array
// reads and writes, the mix the profiler and the interpreter are made of.
// Of the kernels tried (a register-only loop, random access over tables of
// 256 KiB and 4 MiB, and this one), it tracked the per-second speed of the
// vm-offline jobs best; the 4 MiB table also slowed down with the
// program's own garbage collection, which would let a program change move
// the factor. The probe allocates nothing, and it is timed in thread CPU
// time, so a preempted probe is not counted as slow. The raw values and
// the speed factor are kept in the result record.
const (
	// probeReps sizes one probe: about 100 µs on a 2-core x86-64 host.
	probeReps = 40
	// probeRef is the probe's nominal CPU time: reported times are what
	// they would be on a host where one probe takes this long.
	probeRef = 100 * time.Microsecond
	// probeEvery spaces the probes a loop takes between operations.
	probeEvery = 50 * time.Millisecond
	// setupProbes is the number of probes taken around each set-up.
	setupProbes = 10
)

// probeCode is the stack machine's program, probeKeys its map's keys;
// both are fixed, so every probe does the same work.
var probeCode, probeKeys = func() ([]byte, []uint32) {
	code := make([]byte, 512)
	x := uint32(12345)
	for i := range code {
		x = x*1664525 + 1013904223
		code[i] = byte(x>>24) % 6
	}
	keys := make([]uint32, 1024)
	for i := range keys {
		keys[i] = uint32(i) * 2654435761
	}
	return code, keys
}()

// speedometer samples the probe for one measurement loop. Each probe runs
// the stack machine on two threads at once, one per core of the host the
// benchmark is sized for, because the workloads keep both cores busy: the
// cluster's nodes and the garbage collector run beside the loop.
type speedometer struct {
	machines [2]*stackMachine
	last     time.Time
	samples  []float64 // probe CPU times, ns
	// spent is the wall time the probes took, which the measured phase's
	// rates leave out.
	spent time.Duration
}

// stackMachine is one thread's probe state.
type stackMachine struct {
	stack []int64
	mem   []int64
	table map[uint32]uint32
}

func newSpeedometer() *speedometer {
	s := &speedometer{}
	for i := range s.machines {
		m := &stackMachine{stack: make([]int64, 0, len(probeCode)), mem: make([]int64, 4096), table: make(map[uint32]uint32, len(probeKeys))}
		for j, k := range probeKeys {
			m.table[k] = uint32(j)
		}
		s.machines[i] = m
	}
	return s
}

// probe runs both stack machines once and records their thread CPU times.
func (s *speedometer) probe() {
	w0 := time.Now()
	other := make(chan float64)
	go func() { other <- s.machines[1].run() }()
	s.samples = append(s.samples, s.machines[0].run(), <-other)
	s.last = time.Now()
	s.spent += s.last.Sub(w0)
}

// run executes the probe's program and returns its thread CPU time.
func (m *stackMachine) run() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	acc, key := int64(1), uint32(0)
	mem := m.mem
	for rep := 0; rep < probeReps; rep++ {
		stack := m.stack[:0]
		for pc, op := range probeCode {
			switch op {
			case 0:
				stack = append(stack, int64(pc))
			case 1:
				if n := len(stack); n > 1 {
					stack = append(stack[:n-2], stack[n-1]+stack[n-2])
				}
			case 2:
				acc += mem[(acc^int64(pc))&4095]
				mem[pc&4095] = acc
			case 3:
				key = key*2654435761 + uint32(pc)
				acc += int64(m.table[probeKeys[key%1024]])
			case 4:
				if acc&1 == 0 {
					acc = acc*3 + 1
				} else {
					acc >>= 1
				}
			case 5:
				if n := len(stack); n > 0 {
					acc ^= stack[n-1]
					stack = stack[:n-1]
				}
			}
		}
	}
	mem[0] += acc
	return float64(threadCPU() - t0)
}

// due reports whether probeEvery has passed since the last probe.
func (s *speedometer) due() bool { return time.Since(s.last) >= probeEvery }

// between probes if one is due. Loops call it between operations, outside
// every timed interval.
func (s *speedometer) between() {
	if s.due() {
		s.probe()
	}
}

// factor is the median probe time over probeRef: 1.25 means the host ran
// 25% slower than nominal while the samples were taken.
func (s *speedometer) factor() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return median(s.samples) / float64(probeRef.Nanoseconds())
}

// threadCPU returns the calling thread's CPU time in nanoseconds.
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
