package memsys

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap event queue the typed eventHeap
// replaced, kept here as the reference ordering.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].key < h[j].key
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestEventHeapMatchesContainerHeap: 10k random events, many sharing a
// timestamp, pushed with unique sequence numbers packed into their keys
// above a random kind and core, and popped in bursts between pushes,
// leave the typed heap in the same order as container/heap: same pop
// sequence, same layout after every step.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var got eventHeap
	var want refHeap
	check := func(step int) {
		if len(got) != len(want) {
			t.Fatalf("step %d: typed heap holds %d events, reference %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: layout differs at %d: %+v vs %+v", step, i, got[i], want[i])
			}
		}
	}
	pop := func(step int) {
		g, w := got.pop(), heap.Pop(&want).(event)
		if g != w {
			t.Fatalf("step %d: popped %+v, reference popped %+v", step, g, w)
		}
	}
	const n = 10000
	for seq := uint64(1); seq <= n; seq++ {
		kind, core := eventKind(rng.Intn(3)), rng.Intn(8)
		e := event{
			t:   float64(rng.Intn(64)) * 1e-9, // 64 distinct times: heavy ties
			key: seq<<evSeqShift | uint64(kind)<<evCoreBits | uint64(core),
		}
		if e.kind() != kind || e.core() != core {
			t.Fatalf("event %d unpacks to kind %d core %d, packed kind %d core %d", seq, e.kind(), e.core(), kind, core)
		}
		got.push(e)
		heap.Push(&want, e)
		for k := rng.Intn(3); k > 0 && len(want) > 0 && rng.Intn(2) == 0; k-- {
			pop(int(seq))
		}
		check(int(seq))
	}
	for step := n + 1; len(want) > 0; step++ {
		pop(step)
	}
	if len(got) != 0 {
		t.Fatalf("typed heap kept %d events after the reference drained", len(got))
	}
}
