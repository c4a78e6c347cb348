package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// setupRepeats is how many times each workload sets itself up; setup_s is
// the median, which keeps one slow dial or page-in from moving it.
const setupRepeats = 9

// setup runs once setupRepeats times and records the median wall time of
// one set-up as setup_s.
func (r *run) setup(once func(i int) error) error {
	secs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := once(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	r.put("setup_s", "s", quantile(secs, 0.5))
	return nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for none). It sorts
// xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = ms64(d)
	}
	return ms
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mix derives an independent 64-bit seed from a base seed and an index
// (splitmix64 finalizer), so every round and instance has its own inputs.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
