package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is the sample count below which a 95th percentile is
// not reported: with fewer than 200 samples there are fewer than ten
// beyond it, and an interpolated tail would be invented, not measured.
const minTailSamples = 200

// rank returns the q-quantile of sorted by nearest rank (the smallest
// sample with at least a fraction q of the samples at or below it). It
// never interpolates, so every reported value was actually observed.
func rank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quantile sorts a copy of xs and returns its nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return rank(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p95 reports the 95th percentile, or ok=false when the sample is too
// small to have ten observations beyond it.
func p95(xs []float64) (v float64, ok bool) {
	if len(xs) < minTailSamples {
		return 0, false
	}
	return quantile(xs, 0.95), true
}

// tailLatencyMS is the phase's 95th-percentile latency: the calls, in
// completion order, are cut into up to segs consecutive groups of at
// least minTailSamples each, and the median of the groups' p95 is
// reported, so a noisy second on the box moves the tail of one group,
// not the figure. A phase too short for one group reports nothing.
func tailLatencyMS(calls []call, segs int) (v float64, ok bool) {
	segs = min(segs, len(calls)/minTailSamples)
	if segs == 0 {
		return 0, false
	}
	byDone := byCompletion(calls)
	tails := make([]float64, segs)
	for s := range tails {
		tails[s], _ = p95(latenciesMS(byDone[s*len(byDone)/segs : (s+1)*len(byDone)/segs]))
	}
	return median(tails), true
}

// call is the outcome of one closed-loop client call.
type call struct {
	lat   time.Duration // call latency
	done  time.Duration // completion time since the phase started
	bytes int64         // payload bytes the call moved
	err   error
}

// byCompletion returns the calls in the order they completed.
func byCompletion(calls []call) []call {
	out := append([]call(nil), calls...)
	sort.Slice(out, func(i, j int) bool { return out[i].done < out[j].done })
	return out
}

// segmentRates splits a phase's calls, in completion order, into segs
// equal consecutive groups and returns each group's bytes per second:
// the group's bytes over the time between the previous group's last
// completion (or the phase start) and its own. Reporting the median of
// these instead of bytes/wall keeps one stall (a GC cycle, a noisy
// neighbour) from moving the figure.
func segmentRates(calls []call, segs int) []float64 {
	byDone := byCompletion(calls)
	segs = min(segs, len(byDone))
	rates := make([]float64, 0, segs)
	var prevEnd time.Duration
	for s := 0; s < segs; s++ {
		group := byDone[s*len(byDone)/segs : (s+1)*len(byDone)/segs]
		var bytes int64
		for _, c := range group {
			bytes += c.bytes
		}
		end := group[len(group)-1].done
		if span := end - prevEnd; span > 0 {
			rates = append(rates, float64(bytes)/span.Seconds())
		}
		prevEnd = end
	}
	return rates
}

// latenciesMS extracts the calls' latencies in milliseconds.
func latenciesMS(calls []call) []float64 {
	out := make([]float64, len(calls))
	for i, c := range calls {
		out[i] = float64(c.lat) / float64(time.Millisecond)
	}
	return out
}
