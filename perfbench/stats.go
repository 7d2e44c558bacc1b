package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile of xs by nearest rank. It
// refuses a percentile with fewer than minBeyond samples above it: such
// a figure is set by a handful of samples and is not worth reporting.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			p, n, max(0, n-rank), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// userHZ is the kernel's clock-tick rate for /proc/stat times
// (USER_HZ, 100 on every mainstream Linux build).
const userHZ = 100

// stealSeconds reads the host's cumulative steal time — time this
// machine's virtual CPUs were runnable but the hypervisor ran something
// else — from /proc/stat. It returns 0 where /proc/stat is unavailable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu  user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / userHZ
}

// Runtime metrics read from the Go runtime by name.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
)

// runtimeSample is one reading of the runtime counters the benchmark
// reports.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	gcCycles   uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCPU}, {Name: rmGCCycles}}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
	}
}

// allocBytes reads the cumulative bytes allocated on the heap; the
// difference of two readings is what ran in between allocated.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: rmAllocBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const mb = 1 << 20
