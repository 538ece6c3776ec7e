package main

import (
	"runtime/metrics"
	"slices"
	"syscall"
	"unsafe"
)

// cpuNow is the process's CPU time (all threads, user and system), in ns.
// The benchmark times work in CPU time rather than wall time: on a shared
// machine the process is descheduled for tens of milliseconds at a time,
// which inflates wall time by up to a third between otherwise identical
// runs but leaves CPU time alone.
func cpuNow() int64 { return clockNS(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPUNow is the calling thread's CPU time, in ns; the caller must
// hold its goroutine on the thread (runtime.LockOSThread) across readings.
func threadCPUNow() int64 { return clockNS(3) } // CLOCK_THREAD_CPUTIME_ID

func clockNS(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return ts.Nano()
}

// The machine's speed drifts by up to half between periods of a few
// seconds (co-tenants on the host share its caches), in CPU time as well as
// wall time. Arithmetic barely slows; cache- and allocation-bound code like
// the simulator slows most. A fixed calibration workload with that profile,
// run after every operation, tracks the drift: every host time the
// benchmark reports is scaled to the reference speed at which the
// workload's calibration takes refCalNS of CPU time. The calibration is
// the benchmark's own code, so no change to the simulator can move it. Of
// the kernels tried on a 2-vCPU sandbox (pure arithmetic, pointer chasing
// over 8 and 64 MiB, the two in calibrate), this pair tracked paper-grid
// and chaos-audit best: the spread of simulator time over calibration time
// between runs was about 2%, against 16% for raw CPU time.
const refCalNS = 8e6

// The calibration tables live outside the Go heap, so that they do not
// raise the collector's heap goal and change how often the simulator's
// garbage is collected.
var (
	calTable = offHeapWords(1 << 17) // 1 MiB: random read-modify-writes miss L1
	calLarge []uint64                // calibrateLarge's 16 MiB, made by its first run
	calSink  uint64
)

// offHeapWords maps n zeroed words of anonymous memory.
func offHeapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mmap: " + err.Error())
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

// calibrate runs the calibration workload and returns its CPU time in ns:
// random read-modify-writes over calTable, then a small event simulation
// over a binary heap, a map and freshly allocated events.
func calibrate() float64 {
	t0 := cpuNow()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 1_000_000; i++ {
		calTable[next()&(1<<17-1)] += x
	}

	type entity struct {
		busy float64
		hist []float64
	}
	type event struct {
		t   float64
		ent int
	}
	const entities = 1000
	ents := make(map[int]*entity, entities)
	var q []*event // binary min-heap on t
	push := func(e *event) {
		q = append(q, e)
		for i := len(q) - 1; i > 0 && q[(i-1)/2].t > q[i].t; i = (i - 1) / 2 {
			q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
		}
	}
	pop := func() *event {
		top := q[0]
		q[0] = q[len(q)-1]
		q = q[:len(q)-1]
		for i := 0; ; {
			m := i
			for _, c := range []int{2*i + 1, 2*i + 2} {
				if c < len(q) && q[c].t < q[m].t {
					m = c
				}
			}
			if m == i {
				return top
			}
			q[i], q[m] = q[m], q[i]
			i = m
		}
	}
	uniform := func() float64 { return float64(next()>>11) / (1 << 53) }
	for i := 0; i < entities; i++ {
		ents[i*7919] = &entity{}
		push(&event{t: 100 * uniform(), ent: i * 7919})
	}
	for n := 0; n < 12_000; n++ {
		e := pop()
		en := ents[e.ent]
		en.busy += uniform()
		if len(en.hist) < 32 {
			en.hist = append(en.hist, e.t)
		}
		push(&event{t: e.t + 100*uniform(), ent: int(uniform()*entities) * 7919})
	}
	calSink += calTable[x&(1<<17-1)] + uint64(len(q))
	return float64(cpuNow() - t0)
}

// calibrateLarge is the calibration workload of scale-fleet, whose 128-site
// fleets work over tens of MiB: random read-modify-writes over a 16 MiB
// table, most of which miss every cache. It returns its CPU time in ns.
// Over eight runs on a 2-vCPU sandbox whose speed swung by a fifth,
// scale-fleet's 128-site time over this kernel's varied by 6%, against 9%
// over calibrate's.
func calibrateLarge() float64 {
	const size = 1 << 21
	if calLarge == nil {
		calLarge = offHeapWords(size)
	}
	t0 := cpuNow()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 600_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calLarge[x&(size-1)] += x
	}
	calSink += calLarge[x&(size-1)]
	return float64(cpuNow() - t0)
}

// calTablesMB is the size of the calibration tables made so far, in MiB:
// resident for the whole run, they are the benchmark's memory, not the
// simulator's.
func calTablesMB() float64 { return float64(8*(len(calTable)+len(calLarge))) / (1 << 20) }

// speedometer estimates the machine's current speed as the median of the
// calibration workload's last few run times, which follows the drift but
// not one disturbed calibration run.
type speedometer struct {
	calibrate func() float64
	recent    []float64
}

const speedWindow = 5

func newSpeedometer(calibrate func() float64) *speedometer {
	calibrate() // the first run pays the table's page faults
	s := &speedometer{calibrate: calibrate}
	for i := 0; i < 3; i++ {
		s.sample()
	}
	return s
}

func (s *speedometer) sample() {
	s.recent = append(s.recent, s.calibrate())
	if len(s.recent) > speedWindow {
		s.recent = s.recent[1:]
	}
}

// scale converts a CPU time measured since the previous sample to the
// reference speed.
func (s *speedometer) scale(ns float64) float64 { return ns * refCalNS / median(s.recent) }

// allocCount is the process's cumulative heap allocation.
type allocCount struct{ bytes, objects uint64 }

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// readAlloc reads the cumulative heap allocation without stopping the
// world (runtime.ReadMemStats would).
func readAlloc() allocCount {
	metrics.Read(allocSamples)
	return allocCount{bytes: allocSamples[0].Value.Uint64(), objects: allocSamples[1].Value.Uint64()}
}

// maxRSSMB is the peak resident set size of this process, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty sample (no successful operation), which
// every reported figure otherwise exceeds.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, or 0 when den is 0 (a count of nothing per nothing).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
