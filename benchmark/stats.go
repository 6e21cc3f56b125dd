package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it. It
// is always an observed value. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// above counts the samples ranked beyond the p-th percentile. A percentile
// is worth reporting when at least ten samples lie beyond it.
func above(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tally is the failure accounting every workload shares. One attempt is
// one sample: a reramsim process, or one /v1/solve request. An attempt
// fails on a non-zero exit, a non-200 response or a failed output check.
type tally struct {
	attempted, failed int
	problems          []string // the first maxProblems failure reasons
}

const maxProblems = 8

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, err.Error())
	}
}

// frac is failed / attempted (0 when nothing was attempted).
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// correct reports a clean run: something was attempted and nothing failed.
func (t *tally) correct() bool { return t.attempted > 0 && t.failed == 0 }

func (t *tally) String() string {
	return fmt.Sprintf("%d/%d failed", t.failed, t.attempted)
}
