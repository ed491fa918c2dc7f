package main

import "slices"

// median returns the middle value of xs, or the mean of the two middle
// values for an even count; 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so a spread computed here matches one computed from the
// reported samples. One value is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

// tailLadder lists the percentiles a timing's tail is reported at, in
// tenths of a percent.
var tailLadder = []int{900, 990, 999}

// tail returns the highest percentile of tailLadder that has at least
// ten samples beyond its nearest-rank value, with that value; ok is
// false when even the lowest has fewer.
func tail(xs []float64) (p, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, q := range tailLadder {
		rank := (q*n + 999) / 1000 // ceil(q/1000 * n)
		if n-rank < 10 {
			break
		}
		p, v, ok = float64(q)/10, s[rank-1], true
	}
	return p, v, ok
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
