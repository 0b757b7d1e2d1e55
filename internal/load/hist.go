package load

import (
	"time"
)

// Histogram geometry: fixed buckets with geometrically growing
// bounds, 1µs base and 7% growth. Fixed buckets make recording O(1)
// with no allocation on the measurement path (an open-loop generator
// recording under overload must never let measurement cost feed back
// into the system being measured), and geometric growth holds the
// relative quantile error to the growth factor across the whole
// span — histBuckets buckets reach past 10⁴ seconds, far beyond any
// latency a bounded-deadline client can observe.
const (
	histBase    = time.Microsecond
	histGrowth  = 1.07
	histBuckets = 340
)

// histBounds[i] is the inclusive upper bound of bucket i, precomputed
// once at package init.
var histBounds = func() [histBuckets]time.Duration {
	var b [histBuckets]time.Duration
	f := float64(histBase)
	for i := range b {
		b[i] = time.Duration(f)
		f *= histGrowth
	}
	return b
}()

// Hist is a fixed-bucket latency histogram. Each load session records
// into its own (no locking on the hot path); Merge folds them for
// reporting. The zero value is ready to use.
type Hist struct {
	counts [histBuckets]int64
	total  int64
	max    time.Duration
}

// bucketOf locates d's bucket by binary search over the precomputed
// bounds (≤9 probes; branch-predictable, allocation-free).
func bucketOf(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	lo, hi := 0, histBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if histBounds[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add records one latency observation.
func (h *Hist) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.total++
	if d > h.max {
		h.max = d
	}
}

// Merge folds o's observations into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 { return h.total }

// Max returns the largest recorded observation exactly (not bucket-
// quantized: the tail's far end is the one point a histogram should
// not blur).
func (h *Hist) Max() time.Duration { return h.max }

// Percentile returns the p-th percentile (0 < p ≤ 100) as the upper
// bound of the bucket holding that rank — an overestimate by at most
// the 7% bucket width. Zero observations yield zero.
func (h *Hist) Percentile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i == histBuckets-1 {
				return h.max
			}
			return histBounds[i]
		}
	}
	return h.max
}
