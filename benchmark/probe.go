package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// The sandbox's CPU speed drifts by ±15% over seconds to minutes, and a
// program's CPU time drifts with its wall time, so raw times of two runs a
// minute apart cannot tell a 10% regression from the host. Every timed
// step (a sweep, a served session, a set-up step) is therefore bracketed
// by host probes: a fixed CPU-bound task that shares no code with the
// program (Thomas solves over float64 ladders, like the array solver, and
// a map build and sort, like the event loop), on as many threads as the
// program uses. The step's host-normalized time is its wall time scaled by
// probeNominal over the median probe of the groups right before and right
// after it: what the step would take on a host where the probe takes
// probeNominal. One probe before a step alone tracks the host worse than
// the raw time does; a group on each side tracks it better.
const (
	probeNominal = 50 * time.Millisecond
	probeGroup   = 3 // probes per group
)

// timing is one timed step and the probes that bracket it.
type timing struct {
	raw    time.Duration
	probes []time.Duration
}

// probe is the host's probe time during the step.
func (t timing) probe() time.Duration {
	p := slices.Clone(t.probes)
	slices.Sort(p)
	return p[(len(p)-1)/2]
}

func (t timing) norm() time.Duration {
	return time.Duration(float64(t.raw) * float64(probeNominal) / float64(t.probe()))
}

// bracket times consecutive steps between probe groups. The group after
// one step is also the group before the next.
type bracket struct {
	threads int
	last    []time.Duration // the latest group
}

// time runs step, which returns its own measured duration, between two
// probe groups.
func (br *bracket) time(step func() (time.Duration, error)) (timing, error) {
	if br.last == nil {
		br.last = hostProbes(br.threads)
	}
	d, err := step()
	after := hostProbes(br.threads)
	t := timing{raw: d, probes: slices.Concat(br.last, after)}
	br.last = after
	return t, err
}

// hostProbes runs a group of probes and returns their times.
func hostProbes(threads int) []time.Duration {
	ds := make([]time.Duration, probeGroup)
	for i := range ds {
		ds[i] = hostProbe(threads)
	}
	return ds
}

var probeSink float64 // keeps the probe's work observable

// hostProbe runs the probe on `threads` goroutines and returns its time.
func hostProbe(threads int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]float64, threads)
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = ladderWork(512, 2000) + mapWork(200000)
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		probeSink += s
	}
	return d
}

// ladderWork runs reps Thomas solves of an n-node tridiagonal system.
func ladderWork(n, reps int) float64 {
	a, b, c, d := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	x, cp := make([]float64, n), make([]float64, n)
	s := 0.0
	for r := 0; r < reps; r++ {
		for i := range a {
			a[i], b[i], c[i], d[i] = -1, 2.5+math.Sin(float64(i+r)), -1, float64(i%7)
		}
		cp[0], x[0] = c[0]/b[0], d[0]/b[0]
		for i := 1; i < n; i++ {
			m := b[i] - a[i]*cp[i-1]
			cp[i] = c[i] / m
			x[i] = (d[i] - a[i]*x[i-1]) / m
		}
		for i := n - 2; i >= 0; i-- {
			x[i] -= cp[i] * x[i+1]
		}
		s += x[n/2]
	}
	return s
}

// mapWork fills a map from a linear congruential stream and sorts its keys.
func mapWork(n int) float64 {
	m := make(map[uint64]uint64)
	v := uint64(1)
	for i := 0; i < n; i++ {
		v = v*6364136223846793005 + 1442695040888963407
		m[v%uint64(n/4)] += v
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return float64(len(keys))
}
