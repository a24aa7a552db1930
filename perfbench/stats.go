package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) xs:
// the smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above the q-quantile of n samples.
func beyond(n int, q float64) int { return n - rank(n, q) }

// tail returns the highest percentile of sorted that still has minBeyond
// samples beyond it, with its level in (0, 1). ok is false when there are
// too few samples for any such percentile.
func tail(sorted []float64) (v, level float64, ok bool) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0, false
	}
	r := n - minBeyond
	return sorted[r-1], float64(r) / float64(n), true
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the conventional median (mean of the middle pair for even n).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// dueOffset is when request i of an open-loop step at rate requests per
// second is due, relative to the step's start. It is computed from i
// directly, never by accumulating intervals, so the schedule cannot drift.
func dueOffset(i, rate int) time.Duration {
	return time.Duration(int64(i) * int64(time.Second) / int64(rate))
}

// stepRequests is how many requests an open-loop step of the given rate and
// length offers.
func stepRequests(rate int, d time.Duration) int {
	return int(int64(rate) * int64(d) / int64(time.Second))
}

// interval is a half-open [lo, hi) span of nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers. Overlapping
// intervals (children that ran concurrently) count once.
func covered(lo, hi int64, ivs []interval) int64 {
	clip := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clip = append(clip, interval{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].lo < clip[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clip {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return s.End - s.Start - covered(s.Start, s.End, ivs)
}
