package main

import (
	"math/bits"
	"sync/atomic"
)

// hist is a lock-free log-linear histogram of nanosecond durations:
// 128 linear sub-buckets per power of two, so a quantile read from it
// is within 1% of the exact value and its memory does not grow with
// the number of samples.
type hist struct {
	counts [histBuckets]atomic.Uint64
}

const (
	histSub     = 7
	histOctaves = 40 // up to 2^40ns, about 18 minutes
	histBuckets = histOctaves << histSub
)

func histBucket(v int64) int {
	if v < 1<<histSub {
		return int(max(v, 0))
	}
	u := uint64(v)
	shift := bits.Len64(u) - 1 - histSub
	return min((shift+1)<<histSub|int(u>>shift)&(1<<histSub-1), histBuckets-1)
}

// histBounds is the [lo, lo+width) range of bucket b.
func histBounds(b int) (lo, width float64) {
	if b < 1<<histSub {
		return float64(b), 1
	}
	shift := b>>histSub - 1
	mant := b&(1<<histSub-1) | 1<<histSub
	return float64(uint64(mant) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) { h.counts[histBucket(ns)].Add(1) }

func (h *hist) merge(o *hist) {
	for i := range h.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
}

func (h *hist) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// countAtLeast counts the samples in buckets at or above ns's.
func (h *hist) countAtLeast(ns int64) uint64 {
	var n uint64
	for i := histBucket(ns); i < len(h.counts); i++ {
		n += h.counts[i].Load()
	}
	return n
}

// quantile returns the q-quantile in nanoseconds, interpolated within
// its bucket (0 when empty).
func (h *hist) quantile(q float64) float64 {
	total := h.count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for b := range h.counts {
		c := float64(h.counts[b].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, width := histBounds(b)
			return lo + width*(rank-cum)/c
		}
		cum += c
	}
	lo, width := histBounds(len(h.counts) - 1)
	return lo + width
}
