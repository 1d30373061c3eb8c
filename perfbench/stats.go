package main

import (
	"sort"
	"syscall"
)

// median returns the middle value of xs (the mean of the two middle
// values for even counts); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest whole percentile with at least
// ten samples beyond it (nearest-rank), and the value there — the
// deepest tail the sample count supports. With fewer than 11 samples
// no such percentile exists and ok is false.
func tailPercentile(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := sorted(xs)
	for p = 99; p > 1; p-- {
		if n-nearestRank(p, n) >= 10 {
			break
		}
	}
	return p, s[nearestRank(p, n)-1], true
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(p, n int) int {
	return max(1, (p*n+99)/100)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
