package main

import (
	"math"
	"sort"
	"time"
)

// series collects one span's durations in microseconds.
type series struct {
	us []float64
}

func (s *series) add(d time.Duration) { s.us = append(s.us, float64(d.Nanoseconds())/1e3) }

func (s *series) merge(o *series) { s.us = append(s.us, o.us...) }

func (s *series) calls() int { return len(s.us) }

// median returns the median of the series, 0 when it is empty.
func (s *series) median() float64 { return percentile(s.us, 0.5) }

// percentile returns the p-quantile of xs (nearest rank), 0 when xs is
// empty. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// medianOf returns the median of xs without reordering it.
func medianOf(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// spans is a set of named series, one per layer call. Each closed-loop
// client owns one; they are merged after the run.
type spans map[string]*series

func (sp spans) get(name string) *series {
	s := sp[name]
	if s == nil {
		s = &series{}
		sp[name] = s
	}
	return s
}

// time runs f and records its duration under name.
func (sp spans) time(name string, f func()) {
	t0 := time.Now()
	f()
	sp.get(name).add(time.Since(t0))
}

func (sp spans) merge(o spans) {
	for name, s := range o {
		sp.get(name).merge(s)
	}
}
