package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank; 0
// for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quantile is percentile over a sorted copy of v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, q)
}

// median sorts a copy of v and returns its middle value (the mean of the
// two middle values for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// durationsUS converts a latency sample to sorted microseconds.
func durationsUS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / 1e3
	}
	sort.Float64s(out)
	return out
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusMB reads one kB field of /proc/self/status, in MB; 0 if absent.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so a
// later peakRSSMB covers only what follows. Where /proc does not allow it
// the mark keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM);
// getrusage's Maxrss is the fallback where /proc is unreadable.
func peakRSSMB() float64 {
	if mb := statusMB("VmHWM"); mb > 0 {
		return mb
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostBusyTicks returns the host's non-idle CPU ticks from /proc/stat
// (user+nice+system+irq+softirq+steal), or false where it is unreadable.
func hostBusyTicks() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	var busy float64
	for _, i := range []int{1, 2, 3, 6, 7, 8} {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, false
		}
		busy += v
	}
	return busy, true
}

// usage is a snapshot of everything a measured window is charged with;
// two snapshots subtract into the window's cost.
type usage struct {
	at       time.Time
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPU    float64 // seconds
	totalCPU float64 // seconds, as the runtime accounts it
	hostBusy float64 // ticks
	hostOK   bool
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	u := usage{
		at: time.Now(), cpu: cpuTime(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU, u.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	u.hostBusy, u.hostOK = hostBusyTicks()
	return u
}

// window is one measured interval, as the snapshots at its two edges.
type window struct{ from, to usage }

// runtimeLayer fills the runtime.* and host.* per-layer metrics from the
// measured windows, which together served grants critical sections.
func runtimeLayer(m map[string]float64, wins []window, grants int64) {
	var mallocs, bytes, cycles, gcCPU, totalCPU, hostBusy, ownCPU, wall float64
	hostOK := true
	for _, w := range wins {
		mallocs += float64(w.to.mallocs - w.from.mallocs)
		bytes += float64(w.to.bytes - w.from.bytes)
		cycles += float64(w.to.gcCycles - w.from.gcCycles)
		gcCPU += w.to.gcCPU - w.from.gcCPU
		totalCPU += w.to.totalCPU - w.from.totalCPU
		hostBusy += w.to.hostBusy - w.from.hostBusy
		ownCPU += (w.to.cpu - w.from.cpu).Seconds()
		wall += w.to.at.Sub(w.from.at).Seconds()
		hostOK = hostOK && w.from.hostOK && w.to.hostOK
	}
	if grants > 0 {
		m["runtime.allocs_per_grant"] = mallocs / float64(grants)
		m["runtime.bytes_per_grant"] = bytes / float64(grants)
	}
	m["runtime.gc_cycles"] = cycles
	if totalCPU > 0 {
		m["runtime.gc_cpu_share"] = gcCPU / totalCPU
	}
	if hostOK && wall > 0 {
		const hz = 100 // USER_HZ: /proc/stat ticks per second on Linux
		other := hostBusy/hz - ownCPU
		if other < 0 {
			other = 0
		}
		m["host.other_cpu_share"] = other / (wall * float64(runtime.NumCPU()))
	}
}
