package core

import (
	"math/bits"
	"sync/atomic"
)

// maskValues is the number of distinct 8-bit RESET masks, the innermost
// dimension of a cost page.
const maskValues = 1 << 8

// escalationPages is one page per representable escalation step
// (opKey.esc is a uint8).
const escalationPages = 1 << 8

// costTable is a scheme's RESET cost memo. Every op key owns one slot
// holding an atomically published *opCost; slots live in one page per
// escalation step, allocated on first use and dense over (section,
// offset bucket, mask). A hit is two atomic loads and an index, so
// simulations pricing on one scheme in parallel never share a lock.
// Pricing never replaces a published cost, so a reader sees either
// nothing or the final value.
type costTable struct {
	sections int
	pages    [escalationPages]atomic.Pointer[costPage]
}

type costPage struct {
	slots []atomic.Pointer[opCost]
}

// index returns k's slot within its escalation page. Slots ascend in
// (section, offset bucket, mask) order.
func (t *costTable) index(k opKey) int {
	return (int(k.section)*offsetBuckets+int(k.offB))*maskValues + int(k.mask)
}

// inRange reports whether k addresses a slot of the table.
func (t *costTable) inRange(k opKey) bool {
	return int(k.section) < t.sections && int(k.offB) < offsetBuckets
}

// load returns k's published cost, or nil if k has not been priced.
func (t *costTable) load(k opKey) *opCost {
	p := t.pages[k.esc].Load()
	if p == nil {
		return nil
	}
	return p.slots[t.index(k)].Load()
}

// store publishes c as k's cost, allocating k's escalation page on first
// use. Racing allocators agree on one page through CompareAndSwap.
func (t *costTable) store(k opKey, c opCost) {
	pp := &t.pages[k.esc]
	p := pp.Load()
	if p == nil {
		fresh := &costPage{slots: make([]atomic.Pointer[opCost], t.sections*offsetBuckets*maskValues)}
		if pp.CompareAndSwap(nil, fresh) {
			p = fresh
		} else {
			p = pp.Load()
		}
	}
	p.slots[t.index(k)].Store(&c)
}

// each calls fn for every published entry in ascending (section, offset
// bucket, mask, escalation) order, the order of the persisted memo dump.
func (t *costTable) each(fn func(opKey, opCost)) {
	type escPage struct {
		esc uint8
		p   *costPage
	}
	var live []escPage
	for e := range t.pages {
		if p := t.pages[e].Load(); p != nil {
			live = append(live, escPage{uint8(e), p})
		}
	}
	for i := 0; i < t.sections*offsetBuckets*maskValues; i++ {
		for _, ep := range live {
			if c := ep.p.slots[i].Load(); c != nil {
				k := opKey{
					section: uint8(i / (offsetBuckets * maskValues)),
					offB:    uint8(i / maskValues % offsetBuckets),
					mask:    uint8(i % maskValues),
					esc:     ep.esc,
				}
				fn(k, *c)
			}
		}
	}
}

// canonicalMasks tabulates canonicalMask for the pricing hot path.
var canonicalMasks = func() (t [maskValues]uint8) {
	for m := range t {
		t[m] = canonicalMask(uint8(m))
	}
	return t
}()

// canonicalMask collapses a RESET mask to its latency class: the same
// number of bits, spread evenly up to the same right-most multiplexer —
// the pattern PR itself produces. This trades a small cost-model error
// for a 4-8x smaller lookup table (see the LUT ablation bench).
func canonicalMask(m uint8) uint8 {
	n := bits.OnesCount8(m)
	if n == 0 {
		return 0
	}
	top := bits.Len8(m) - 1
	out := uint8(0)
	for i := 0; i < n; i++ {
		pos := top - i*(top+1)/n
		out |= 1 << pos
	}
	return out
}
