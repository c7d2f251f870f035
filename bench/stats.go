package main

import "sort"

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between the closest ranks, so a tail percentile over few samples is
// not simply their maximum; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// worsening is the share by which b is worse than a for a metric whose
// better direction is given; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// agree reports whether every value lies within bound of every other in
// the metric's worse direction, i.e. no set would be rejected as a
// regression against another.
func agree(vals []float64, m metric) bool {
	for _, a := range vals {
		for _, b := range vals {
			if worsening(a, b, m.Better) > m.Bound {
				return false
			}
		}
	}
	return true
}
