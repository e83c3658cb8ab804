package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p99 over fewer than 1000 samples is the maximum of a handful, not a p99.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// fails when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if beyond := n - max(int(math.Ceil(q*float64(n))), 1); beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d",
			q*100, n, max(beyond, 0), minBeyond)
	}
	return nearestRank(xs, q), nil
}

// nearestRank is the q-quantile without the samples-beyond rule; 0 for
// no samples.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s)))), 1)-1]
}

// median is the 0.5 nearest-rank quantile without the samples-beyond rule
// (a median always has half the samples beyond it); 0 for no samples.
func median(xs []float64) float64 { return nearestRank(xs, 0.5) }

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects metrics in report order. A strict set keeps the
// first error a percentile raised, so a run with too few samples fails as
// a whole; a lenient one (the traced run's layer diagnostics) notes the
// shortfall in short instead.
type metricSet struct {
	list   []metric
	strict bool
	err    error
	short  []string
}

func (m *metricSet) add(name string, v float64, unit string, samples int) {
	m.list = append(m.list, metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

// pct adds the q-quantile of xs under name. Without enough samples
// beyond it, a lenient set reports the nearest-rank value anyway.
func (m *metricSet) pct(name string, xs []float64, q float64, unit string) {
	v, err := percentile(xs, q)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
		if m.strict && m.err == nil {
			m.err = err
		}
		if !m.strict {
			m.short = append(m.short, err.Error())
			v = nearestRank(xs, q)
		}
	}
	m.add(name, v, unit, len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
