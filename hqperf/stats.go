package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
)

// quantile returns the q-quantile of vs by linear interpolation between the
// two nearest ranks (vs is sorted in place). It returns NaN for no samples.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo >= len(vs)-1 {
		return vs[len(vs)-1]
	}
	frac := pos - float64(lo)
	return vs[lo] + frac*(vs[lo+1]-vs[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// sample is one completed operation of a measured phase: a gate cycle or a
// program run.
type sample struct {
	at   int64   // completion, ns after the measured phase began
	ns   float64 // latency as the monitored program saw it
	msgs float64 // messages the operation carried
}

// window summarizes the samples that completed inside one window.
type window struct {
	sec  float64
	ops  int
	msgs float64
	lat  []float64
}

func (w window) msgRate() float64 { return w.msgs / w.sec }
func (w window) opRate() float64  { return float64(w.ops) / w.sec }

// windows cuts [0, span) into whole windows of length w (one window when
// w >= span).
func windows(ss []sample, span, w int64) []window {
	n := int(span / w)
	if n < 1 {
		n, w = 1, span
	}
	ws := make([]window, n)
	for i := range ws {
		ws[i].sec = float64(w) / 1e9
	}
	for _, s := range ss {
		if k := int(s.at / w); s.at >= 0 && k < n {
			ws[k].ops++
			ws[k].msgs += s.msgs
			ws[k].lat = append(ws[k].lat, s.ns)
		}
	}
	return ws
}

// best returns f's best value over the windows (highest when higher, else
// lowest; NaN never wins), the window it came from, and the median value.
func best(ws []window, higher bool, f func(window) float64) (v float64, from window, med float64) {
	vals := make([]float64, len(ws))
	bi := -1
	for i, w := range ws {
		vals[i] = f(w)
		if math.IsNaN(vals[i]) {
			continue
		}
		if bi < 0 || (higher && vals[i] > vals[bi]) || (!higher && vals[i] < vals[bi]) {
			bi = i
		}
	}
	if bi < 0 {
		return math.NaN(), ws[0], math.NaN()
	}
	v, from = vals[bi], ws[bi]
	return v, from, median(vals)
}

// peakRSSMB reports the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapMB forces a collection and reports the live heap in MiB: the
// memory the process holds, independent of when the collector last ran.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
