package main

import (
	"math"
	"sort"
	"time"
)

// series collects one timing or size per operation.
type series []float64

func (s *series) add(v float64) { *s = append(*s, v) }

// addDur records d in microseconds.
func (s *series) addDur(d time.Duration) { s.add(float64(d.Nanoseconds()) / 1e3) }

// quantile returns the q-quantile by linear interpolation between the two
// nearest ranks (NaN for an empty series).
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s series) median() float64 { return s.quantile(0.5) }

func (s series) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// metrics is an ordered metric list; names are unique.
type metrics []metric

func (m *metrics) set(name string, value float64, unit string, n int) {
	for i := range *m {
		if (*m)[i].Name == name {
			(*m)[i] = metric{name, value, unit, n}
			return
		}
	}
	*m = append(*m, metric{name, value, unit, n})
}

func (m metrics) get(name string) (metric, bool) {
	for _, x := range m {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// ratio returns a/b, or 0 when b is 0 (a layer with no samples).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
