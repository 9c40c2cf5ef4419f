package main

import (
	"fmt"
	"sort"
)

// minTailSamples is the fewest samples a p90 is reported from: below it
// the 90th percentile rests on fewer than ten samples beyond it.
const minTailSamples = 100

// samples is one op type's latencies (or one rung's durations), in ns.
type samples []float64

// quantile returns the q-quantile of s by linear interpolation between
// closest ranks. s need not be sorted; it is sorted in place.
func (s samples) quantile(q float64) float64 {
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// p50 returns the median; it fails on an empty sample.
func (s samples) p50() (float64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	return s.quantile(0.5), nil
}

// p90 returns the 90th percentile; it refuses samples smaller than
// minTailSamples.
func (s samples) p90() (float64, error) {
	if len(s) < minTailSamples {
		return 0, fmt.Errorf("p90 needs at least %d samples, have %d", minTailSamples, len(s))
	}
	return s.quantile(0.9), nil
}

// median returns the median of a small set of repeated measurements.
func median(xs []float64) float64 { return samples(append([]float64(nil), xs...)).quantile(0.5) }
