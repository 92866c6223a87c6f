package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile
// for it to be supported: p99 needs at least 1000 samples.
const minTail = 10

// dist is one latency distribution, summarized by its median and p99.
type dist []float64

// summary is a distribution's reported figures.
type summary struct {
	N   int
	P50 float64
	// P99 is the 99th percentile when at least minTail samples lie
	// beyond it. With fewer samples (P99Flagged) it is the highest
	// percentile the sample supports, Tail, so that it never rests on a
	// handful of extreme samples; below 2·minTail samples that is the
	// median.
	P99        float64
	Tail       float64 // percent
	P99Flagged bool
	// Windows is how many time windows' p99s P99 is the median of (0:
	// P99 is taken over the whole sample).
	Windows int
}

func (d dist) summarize() summary {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	tail := min(0.99, max(0.5, tailQuantile(len(s))))
	return summary{
		N:          len(s),
		P50:        quantile(s, 0.50),
		P99:        quantile(s, tail),
		Tail:       100 * tail,
		P99Flagged: !supported(len(s), 0.99),
	}
}

// timed is a distribution whose samples are filed by the time window
// (of length w, counted from start) each completed in, so its tail can
// be taken window by window.
type timed struct {
	start time.Time
	w     time.Duration
	win   []int32
	v     dist
}

func (t *timed) add(at time.Time, v float64) {
	t.win = append(t.win, int32(at.Sub(t.start)/t.w))
	t.v = append(t.v, v)
}

// minWindows is how many supported windows a windowed p99 needs.
const minWindows = 3

// summarize is dist.summarize, except that when at least minWindows
// windows each hold enough samples for a supported p99, P99 is the
// median of those windows' p99s. A tail taken that way is not set by
// one stall or GC pause.
func (t timed) summarize() summary {
	s := t.v.summarize()
	byWindow := map[int32]dist{}
	for i, k := range t.win {
		byWindow[k] = append(byWindow[k], t.v[i])
	}
	var p99s []float64
	for _, d := range byWindow {
		if supported(len(d), 0.99) {
			p99s = append(p99s, d.summarize().P99)
		}
	}
	if len(p99s) >= minWindows {
		s.P99, s.Tail, s.P99Flagged, s.Windows = median(p99s), 99, false, len(p99s)
	}
	return s
}

// quantile is the nearest-rank p-quantile of sorted samples (0 when
// there are none).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// supported reports whether n samples leave at least minTail samples
// beyond the p-quantile.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minTail-1e-9
}

// tailQuantile is the highest quantile n samples support, 0 when even
// the median is unsupported.
func tailQuantile(n int) float64 {
	if n < 2*minTail {
		return 0
	}
	return 1 - minTail/float64(n)
}

// median of unsorted values (0 when empty).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// interval is a span's extent in nanoseconds since the tracer's base.
type interval struct{ start, end int64 }

// coverIndex answers "how much of [a, b) do these intervals cover",
// counting overlapping intervals once.
type coverIndex struct {
	iv     []interval // sorted by start
	maxLen int64
}

func newCoverIndex(iv []interval) *coverIndex {
	c := &coverIndex{iv: append([]interval(nil), iv...)}
	sort.Slice(c.iv, func(i, j int) bool { return c.iv[i].start < c.iv[j].start })
	for _, x := range c.iv {
		if l := x.end - x.start; l > c.maxLen {
			c.maxLen = l
		}
	}
	return c
}

// covered returns the length of [p.start, p.end) that the union of the
// indexed intervals overlaps.
func (c *coverIndex) covered(p interval) int64 {
	lo := sort.Search(len(c.iv), func(i int) bool { return c.iv[i].start >= p.start-c.maxLen })
	var total int64
	cur := p.start // everything before cur is already accounted for
	for _, x := range c.iv[lo:] {
		if x.start >= p.end {
			break
		}
		s, e := max(x.start, cur), min(x.end, p.end)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part its child spans cover.
func (c *coverIndex) selfTime(p interval) int64 {
	return p.end - p.start - c.covered(p)
}
