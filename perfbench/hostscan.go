package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// offline-paper is memory-bound, and on a shared host its speed follows
// the memory traffic of other tenants: one-second windows of sampler rounds
// moved by 2x within minutes, with no CPU steal to show for it, and the
// median of a 20-second run by ±30% between runs. CPU steal (time the
// hypervisor gives another guest) also takes a share of both CPUs from the
// harness, which keeps both busy. So each stretch of the workload's
// measured work is timed between two scans of a fixed buffer, whose
// fastest pass slows with the memory traffic (correlation 0.7 with the
// sampler's rounds per batch), and the machine's steal share over it is
// read; its figures are reported at a nominal host:
//
//   - the median round: time × hostScanNominalMs / scan time;
//   - the 90th (and 99th) percentile round: that × (1 − steal), since a
//     round the hypervisor preempts lands in the tail, not at the median;
//   - a label rate: rate × scan time / hostScanNominalMs / (1 − steal), and
//     a set-up time, the inverse.
//
// The scan is benchmark code: the program's own speed is not in it, so a
// change to the program moves the scaled figures as much as the raw ones.
// The service workloads are not scaled: their rounds are bound by the
// network stack, not memory, and across runs the scan did not follow them.
const (
	hostScanBytes  = 32 << 20 // larger than the last-level cache
	hostScanChunks = 6        // passes per scan; the fastest counts
	// hostScanNominalMs is the median scan on the 2-vCPU Xeon host the
	// bounds were set on; it only sets the scale of the reported figures.
	hostScanNominalMs = 5.3
)

// hostScan is the scan's buffer. It is mapped outside the Go heap, so it
// changes neither the heap the program sees nor the garbage collector's
// pacing; it stays resident, and max_rss_mb leaves it out.
type hostScan struct {
	mem   []byte
	words []uint64
	sink  uint64
	times series // ms per scan
	// total and steal are the machine's CPU ticks when a stretch started.
	total, steal uint64
}

func newHostScan() (*hostScan, error) {
	mem, err := syscall.Mmap(-1, 0, hostScanBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map host scan buffer: %w", err)
	}
	h := &hostScan{mem: mem, words: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8)}
	for i := range h.words {
		h.words[i] = uint64(i)
	}
	return h, nil
}

func (h *hostScan) close() error { return syscall.Munmap(h.mem) }

func (h *hostScan) residentMB() float64 { return float64(len(h.mem)) / (1 << 20) }

// measure collects the program's garbage, so no collection runs inside the
// scan, then reads the buffer hostScanChunks times and returns the fastest
// pass in milliseconds: a slower one was preempted, which the steal share
// accounts for.
func (h *hostScan) measure() float64 {
	runtime.GC()
	best := math.Inf(1)
	for c := 0; c < hostScanChunks; c++ {
		start := time.Now()
		var acc uint64
		for _, w := range h.words {
			acc += w
		}
		best = min(best, ms(time.Since(start)))
		h.sink += acc
	}
	h.times.add(best)
	return best
}

// start begins a stretch of measured work.
func (h *hostScan) start() { h.total, h.steal = cpuTicks() }

// stealShare is the share of the machine's CPU time steal took since start.
func (h *hostScan) stealShare() float64 {
	total, steal := cpuTicks()
	return ratio(float64(steal-h.steal), float64(total-h.total))
}

// hostFactors describes a stretch of work: how much slower than nominal
// the host's memory ran, and the share of the machine's CPU time steal took.
type hostFactors struct{ slow, steal float64 }

// factors describes a stretch of work between scans taking a and b
// milliseconds, with the given steal share.
func factors(a, b, steal float64) hostFactors {
	return hostFactors{slow: (a + b) / 2 / hostScanNominalMs, steal: steal}
}

func (f hostFactors) median(us float64) float64 { return us / f.slow }
func (f hostFactors) time(t float64) float64    { return t / f.slow * (1 - f.steal) }
func (f hostFactors) rate(r float64) float64    { return r * f.slow / (1 - f.steal) }

// setups runs reps set-ups, each between two scans, and returns their
// seconds at the nominal host and as measured. setup returns the time it
// took.
func (h *hostScan) setups(reps int, setup func(rep int) (time.Duration, error)) (scaled, raw series, err error) {
	scan := h.measure()
	for rep := 0; rep < reps; rep++ {
		h.start()
		d, err := setup(rep)
		if err != nil {
			return nil, nil, err
		}
		steal := h.stealShare()
		prev := scan
		scan = h.measure()
		raw.add(d.Seconds())
		scaled.add(factors(prev, scan, steal).time(d.Seconds()))
	}
	return scaled, raw, nil
}
