package main

import (
	"fmt"
	"syscall"
	"time"
)

// metric is one reported figure. N is the sample count it rests on;
// Flag says why a reader should not trust it as named.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Flag  string
}

// report is an ordered list of metrics.
type report []metric

func (r *report) add(name string, value float64, unit string, n int) {
	*r = append(*r, metric{Name: name, Value: value, Unit: unit, N: n})
}

// addDist adds a distribution's p50 and p99, flagging a p99 that rests
// on fewer than minTail samples beyond it.
func (r *report) addDist(name string, d dist, unit string) {
	r.addSummary(name, d.summarize(), unit)
}

func (r *report) addSummary(name string, s summary, unit string) {
	r.add(name+".p50", s.P50, unit, s.N)
	r.addP99(name+".p99", s, unit)
}

// addP99 adds a summary's p99 under name, saying how it was taken when
// that is not over the whole sample.
func (r *report) addP99(name string, s summary, unit string) {
	m := metric{Name: name, Value: s.P99, Unit: unit, N: s.N}
	switch {
	case s.P99Flagged:
		m.Flag = fmt.Sprintf("p99 unsupported by %d samples: this is p%.1f", s.N, s.Tail)
	case s.Windows > 0:
		m.Flag = fmt.Sprintf("median of %d per-%v-window p99s", s.Windows, tailWindow)
	}
	*r = append(*r, m)
}

// tailWindow is the window the end-to-end p99s are taken over.
const tailWindow = time.Second

// get returns the metric called name (the zero metric if absent).
func (r report) get(name string) metric {
	for _, m := range r {
		if m.Name == name {
			return m
		}
	}
	return metric{}
}

// outcome is what a pass delivered: attempted and failed pictures over
// every stream (warm-up included), and the streams of the measured
// window, with those that completed byte-exact.
type outcome struct {
	attempted, failed int
	measured          []*streamRec
	delivered         []*streamRec // measured and byte-exact
	pictures          int          // delivered pictures
	bytes             int64
	lastByte          time.Time // last delivered egress byte
}

func (p *pass) outcome() outcome {
	var o outcome
	for _, rec := range p.recs {
		n := rec.seq.tr.Len()
		o.attempted += n
		if !rec.delivered {
			o.failed += n
		}
		if !rec.measured {
			continue
		}
		o.measured = append(o.measured, rec)
		if !rec.delivered {
			continue
		}
		o.delivered = append(o.delivered, rec)
		o.pictures += n
		o.bytes += rec.seq.bytes
		if rec.lastByte.After(o.lastByte) {
			o.lastByte = rec.lastByte
		}
	}
	return o
}

func cpuTime(u syscall.Rusage) time.Duration {
	return time.Duration(u.Utime.Nano() + u.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the user-visible metrics of a pass, all measured
// from outside the program.
func (p *pass) endToEnd(setup []float64) report {
	o := p.outcome()
	admit := timed{start: p.window, w: tailWindow}
	streamT := timed{start: p.window, w: tailWindow}
	for _, rec := range o.measured {
		if !rec.verdictAt.IsZero() && !rec.helloAt.IsZero() {
			admit.add(rec.verdictAt, ms(rec.verdictAt.Sub(rec.helloAt)))
		}
	}
	for _, rec := range o.delivered {
		streamT.add(rec.endAt, ms(rec.endAt.Sub(rec.helloAt)))
	}
	var r report
	r.add("setup_s", median(setup), "s", len(setup))
	r.add("egress_mb_per_s", float64(o.bytes)/1e6/o.lastByte.Sub(p.window).Seconds(), "MB/s", o.pictures)
	for _, d := range []struct {
		name, unit string
		t          timed
	}{{"admit_ms", "ms", admit}, {"stream_ms", "ms", streamT}, {"picture_ms", "ms", p.picture}, {"delay_s", "s", p.delay}} {
		r.addSummary(d.name, d.t.summarize(), d.unit)
	}
	cpu := cpuTime(p.usage1) - cpuTime(p.usage0)
	r.add("cpu_us_per_picture", float64(cpu)/float64(time.Microsecond)/float64(max(o.pictures, 1)), "us", o.pictures)
	r.add("peak_rss_mb", float64(p.usage1.Maxrss)/1024, "MB", 1)
	r.add("failed_frac", float64(o.failed)/float64(max(o.attempted, 1)), "ratio", o.attempted)
	return r
}
