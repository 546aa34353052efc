package main

import (
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// readRuntime samples the runtime's GC and user CPU estimates and its
// automatic collection count.
func readRuntime() [3]float64 {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}
	rtmetrics.Read(s)
	var v [3]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case rtmetrics.KindFloat64:
			v[i] = x.Value.Float64()
		case rtmetrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		}
	}
	return v
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS returns the process's peak resident set in bytes.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the order statistics of v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
