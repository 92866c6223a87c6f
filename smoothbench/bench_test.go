package main

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n         int
		p99OK     bool
		wantTail  float64 // percent
		wantP99At int     // 1-based rank of the reported "p99"
	}{
		{n: 1000, p99OK: true, wantTail: 99, wantP99At: 990},
		{n: 5000, p99OK: true, wantTail: 99, wantP99At: 4950},
		{n: 999, p99OK: false, wantTail: 100 * (1 - 10.0/999), wantP99At: 989},
		{n: 100, p99OK: false, wantTail: 90, wantP99At: 90},
		{n: 19, p99OK: false, wantTail: 50, wantP99At: 10},
	} {
		d := make(dist, c.n)
		for i := range d {
			d[i] = float64(c.n - i) // reversed: summarize must sort
		}
		s := d.summarize()
		if s.P99Flagged == c.p99OK {
			t.Errorf("n=%d: flagged=%v, want %v", c.n, s.P99Flagged, !c.p99OK)
		}
		if diff := s.Tail - c.wantTail; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("n=%d: tail p%v, want p%v", c.n, s.Tail, c.wantTail)
		}
		if s.P99 != float64(c.wantP99At) {
			t.Errorf("n=%d: p99 reads rank %v, want %d", c.n, s.P99, c.wantP99At)
		}
		if beyond := c.n - int(s.P99); c.n >= 20 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
		if want := float64((c.n + 1) / 2); s.P50 != want {
			t.Errorf("n=%d: p50 %v, want %v", c.n, s.P50, want)
		}
	}
	if s := (dist{}).summarize(); s.N != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("empty distribution summarized as %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	children := []interval{
		{10, 20}, {15, 25}, // overlapping: 10..25 counts once
		{40, 50},
		{95, 130}, // runs past the parent
		{200, 300},
	}
	c := newCoverIndex(children)
	for _, tc := range []struct {
		parent interval
		self   int64
	}{
		{interval{0, 100}, 100 - 15 - 10 - 5},
		{interval{12, 45}, 33 - 13 - 5},
		{interval{60, 90}, 30},
		{interval{100, 120}, 0},
		{interval{250, 260}, 0},
	} {
		if got := c.selfTime(tc.parent); got != tc.self {
			t.Errorf("self time of %v = %d, want %d", tc.parent, got, tc.self)
		}
	}
}

// chunks splits payloads the way the server's egress writes them: each
// payload in chunk-sized writes from its own start.
func chunks(payloads [][]byte, chunk int) [][]byte {
	var out [][]byte
	for _, p := range payloads {
		for off := 0; off < len(p); off += chunk {
			out = append(out, p[off:min(off+chunk, len(p))])
		}
	}
	return out
}

func stampedPayloads(id uint32, sizes []int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		out[i] = make([]byte, n)
		rng.Read(out[i])
		putStamp(out[i][n-stampLen:], stamp{stream: id, index: uint32(i)})
	}
	return out
}

func TestStampTailAcrossChunkBoundaries(t *testing.T) {
	// Every split of a stamp over a 4 KiB write boundary, plus a stamp
	// well inside the last write.
	for cut := 1; cut < stampLen; cut++ {
		pl := stampedPayloads(7, []int{4096 + cut}, int64(cut))[0]
		var tail stampTail
		for _, w := range chunks([][]byte{pl}, 4096) {
			tail.feed(w)
		}
		st, err := tail.stamp()
		if err != nil || st != (stamp{stream: 7, index: 0}) {
			t.Fatalf("cut %d: stamp %+v, %v", cut, st, err)
		}
	}
	// Byte-at-a-time feeding must decode the same stamp.
	pl := stampedPayloads(9, []int{300}, 1)[0]
	var tail stampTail
	for i := range pl {
		tail.feed(pl[i : i+1])
	}
	if st, err := tail.stamp(); err != nil || st != (stamp{stream: 9, index: 0}) {
		t.Fatalf("byte-wise: stamp %+v, %v", st, err)
	}
	// A corrupted stamp byte is caught, wherever the split falls.
	for _, cut := range []int{0, 5, 15} {
		pl := stampedPayloads(7, []int{4096 + cut + 1}, 2)[0]
		pl[len(pl)-stampLen+6] ^= 0x40 // inside the stream id
		var tail stampTail
		for _, w := range chunks([][]byte{pl}, 4096) {
			tail.feed(w)
		}
		if st, err := tail.stamp(); err == nil {
			t.Fatalf("cut %d: corrupted stamp decoded as %+v", cut, st)
		}
	}
}

func TestSinkAttributesInterleavedWrites(t *testing.T) {
	sizes := []int{4096 + 3, 4096*2 + 15, 900, 4096, 16}
	a := newFlow(1, stampedPayloads(1, sizes, 1), nil)
	b := newFlow(2, stampedPayloads(2, sizes, 2), nil)
	s := &sink{}
	s.add(a)
	s.add(b)
	wa, wb := chunks(a.payloads, 4096), chunks(b.payloads, 4096)
	for i := 0; i < max(len(wa), len(wb)); i++ {
		for _, ws := range [][][]byte{wa, wb} {
			if i < len(ws) {
				s.Write(append([]byte(nil), ws[i]...))
			}
		}
	}
	_, n, errs := s.snapshot()
	if len(errs) != 0 {
		t.Fatalf("clean interleaved egress flagged: %v", errs)
	}
	for _, f := range []*flow{a, b} {
		select {
		case <-f.done:
		default:
			t.Fatalf("flow %d incomplete at picture %d", f.id, f.pic)
		}
		for i, at := range f.lastByte {
			if at.IsZero() || at.After(time.Now()) {
				t.Fatalf("flow %d picture %d: last byte at %v", f.id, i, at)
			}
		}
	}
	total := 0
	for _, sz := range sizes {
		total += 2 * sz
	}
	if n != int64(total) {
		t.Fatalf("sink counted %d bytes, want %d", n, total)
	}
}

func TestSinkCatchesCorruption(t *testing.T) {
	for _, tc := range []struct {
		name string
		hit  func(p [][]byte) // damages the egress copy of the payloads
	}{
		{"payload byte", func(p [][]byte) { p[1][100] ^= 1 }},
		{"split stamp", func(p [][]byte) { p[0][len(p[0])-2] ^= 0x80 }},
		{"dropped picture", func(p [][]byte) { p[2] = p[2][:0] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sizes := []int{4096 + 3, 700, 800, 900}
			f := newFlow(5, stampedPayloads(5, sizes, 3), nil)
			wire := make([][]byte, len(f.payloads))
			for i, p := range f.payloads {
				wire[i] = append([]byte(nil), p...)
			}
			tc.hit(wire)
			s := &sink{}
			s.add(f)
			for _, w := range chunks(wire, 4096) {
				s.Write(w)
			}
			_, _, errs := s.snapshot()
			if len(errs) == 0 {
				t.Fatal("damaged egress passed the sink")
			}
			if !strings.Contains(errs[0], "matches no in-flight stream") {
				t.Fatalf("unexpected violation %q", errs[0])
			}
		})
	}
}

func TestWindowedTail(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(win int, i int) time.Time {
		return start.Add(time.Duration(win)*time.Second + time.Duration(i)*time.Microsecond)
	}
	// Four windows of 1000 samples: values 1..1000 scaled by the
	// window's factor, so each window's p99 is 990 × factor. One extra
	// window holds a stall: too few samples to support its own p99.
	d := timed{start: start, w: time.Second}
	for win, factor := range []float64{1, 2, 3, 4} {
		for i := 1; i <= 1000; i++ {
			d.add(at(win, i), float64(i)*factor)
		}
	}
	for i := 0; i < 50; i++ {
		d.add(at(9, i), 1e6)
	}
	s := d.summarize()
	if s.Windows != 4 || s.P99Flagged {
		t.Fatalf("windows %d flagged %v, want 4 supported windows", s.Windows, s.P99Flagged)
	}
	if want := 990.0 * 2; s.P99 != want { // median of 990, 1980, 2970, 3960
		t.Fatalf("windowed p99 %v, want %v", s.P99, want)
	}
	if whole := d.v.summarize(); whole.P99 != 1e6 {
		t.Fatalf("whole-run p99 %v: the stall should set it", whole.P99)
	}

	// Too few supported windows: the whole-sample rule applies.
	few := timed{start: start, w: time.Second}
	for i := 1; i <= 2000; i++ {
		few.add(at(i%2, i), float64(i))
	}
	if s := few.summarize(); s.Windows != 0 || s.P99 != 1980 {
		t.Fatalf("two windows: windows %d p99 %v, want the whole-sample p99 1980", s.Windows, s.P99)
	}
}
