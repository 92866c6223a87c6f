package core

import (
	"math"
	"testing"

	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/trace"
)

// The inner lookahead loop of Figure 2 has three exits: early exit with
// the lower bound rising past the upper (rate := upper), early exit with
// the upper bound falling below the lower (rate := lower), and normal
// exit after H pictures. These tests construct traces that force each
// path and check the selected rate against hand analysis.

// TestEarlyExitLowerRises: a tiny picture followed by a huge one. At
// h=0 the bounds are low; at h=1 the accumulated sum explodes, pushing
// the lower bound above the (unchanged) running upper bound. The
// algorithm must select the running upper bound.
func TestEarlyExitLowerRises(t *testing.T) {
	// τ=0.1, K=1, D=0.5, H=2.
	// Picture 0: S=1000. Picture 1: S=1_000_000.
	// t_0 = 0.1.
	// h=0: lower = 1000/(0.5+0-0.1) = 2500; upper = 1000/(0.2-0.1) = 10000.
	// h=1: sum=1001000; lower = 1001000/(0.5+0.1-0.1) = 2002000 > upper.
	//      upper(1) = 1001000/(0.3-0.1) = 5005000; running upper stays 10000.
	// Early exit with lower risen → rate := upper = 10000.
	tr := &trace.Trace{Name: "e1", Tau: 0.1, GOP: mpeg.GOP{M: 1, N: 1}, Sizes: []int64{1000, 1_000_000}}
	s, err := Smooth(tr, Config{K: 1, H: 2, D: 0.5, Estimator: OracleEstimator{}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Rates[0]-10000) > 1e-9 {
		t.Fatalf("r_0 = %v, want 10000 (early exit, rate := upper)", s.Rates[0])
	}
}

// TestEarlyExitUpperFalls: a huge picture followed by a tiny one. The
// h=1 upper bound (continuous service for the tiny follower) collapses
// below the h=0 lower bound. The algorithm must select the running
// lower bound.
func TestEarlyExitUpperFalls(t *testing.T) {
	// τ=0.1, K=1, D=0.21, H=2.
	// Picture 0: S=100000; picture 1: S=10.
	// t_0 = 0.1.
	// h=0: lower = 100000/(0.21-0.1) = 909090.9...; upper = 100000/0.1 = 1e6.
	// h=1: sum=100010; upper(1) = 100010/(0.3-0.1) = 500050 < lower!
	// lower(1) = 100010/(0.21+0.1-0.1) = 476238... < running lower.
	// Early exit with upper fallen → rate := lower = 909090.9...
	tr := &trace.Trace{Name: "e2", Tau: 0.1, GOP: mpeg.GOP{M: 1, N: 1}, Sizes: []int64{100000, 10}}
	s, err := Smooth(tr, Config{K: 1, H: 2, D: 0.21, Estimator: OracleEstimator{}})
	if err != nil {
		t.Fatal(err)
	}
	want := 100000 / (0.21 + 0 - 0.1)
	if math.Abs(s.Rates[0]-want) > 1e-6 {
		t.Fatalf("r_0 = %v, want %v (early exit, rate := lower)", s.Rates[0], want)
	}
}

// TestNormalExitHoldsRate: on a constant-size trace, the held rate can
// need at most a couple of corrections (the midpoint start rate is
// below the sustainable arrival rate, so the delay bound eventually
// forces one upward move); after settling it must be held bit-exactly.
func TestNormalExitHoldsRate(t *testing.T) {
	tr := flatTrace(40, 5000, 0.1)
	s, err := Smooth(tr, Config{K: 1, H: 1, D: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	for j := 1; j < 40; j++ {
		if s.Rates[j] != s.Rates[j-1] {
			changes++
		}
	}
	if changes > 3 {
		t.Fatalf("%d rate changes on a constant trace", changes)
	}
	// The tail is exactly constant: held, not recomputed.
	for j := 21; j < 40; j++ {
		if s.Rates[j] != s.Rates[20] {
			t.Fatalf("tail rate changed at %d", j)
		}
	}
	// And the settled rate is the sustainable arrival rate, 50 kbps.
	if math.Abs(s.Rates[39]-50000) > 1 {
		t.Fatalf("settled rate %v, want ~50000", s.Rates[39])
	}
}

// TestFirstPictureMidpoint: r_0 on normal exit is (lower+upper)/2.
func TestFirstPictureMidpoint(t *testing.T) {
	// τ=0.1, K=1, H=1, D=0.3, S=1000:
	// t_0=0.1; lower = 1000/(0.3-0.1) = 5000; upper = 1000/(0.2-0.1) = 10000.
	tr := flatTrace(1, 1000, 0.1)
	s, err := Smooth(tr, Config{K: 1, H: 1, D: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Rates[0]-7500) > 1e-9 {
		t.Fatalf("r_0 = %v, want 7500", s.Rates[0])
	}
}

// TestLookaheadTruncatesAtSequenceEnd: with H far beyond the trace
// length the loop must stop at the last picture, not index past it.
func TestLookaheadTruncatesAtSequenceEnd(t *testing.T) {
	tr := flatTrace(3, 1000, 0.1)
	s, err := Smooth(tr, Config{K: 1, H: 50, D: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.CheckDelayBound(); v != -1 {
		t.Fatalf("delay bound violated at %d", v)
	}
	if v := s.CheckConservation(); v != -1 {
		t.Fatalf("conservation violated at %d", v)
	}
}

// TestMovingAverageUsesPatternSum: with MovingAveragePolicy and
// all sizes known, the unclamped proposal is Σ/(Nτ).
func TestMovingAverageUsesPatternSum(t *testing.T) {
	// N=3, τ=0.1; sizes all 3000; pattern average = 9000/0.3 = 30000.
	// With a loose bound the proposal is never clamped after picture 0.
	sizes := make([]int64, 12)
	for i := range sizes {
		sizes[i] = 3000
	}
	tr := &trace.Trace{Name: "ma", Tau: 0.1, GOP: mpeg.GOP{M: 1, N: 3}, Sizes: sizes}
	s, err := Smooth(tr, Config{K: 1, H: 3, D: 1.0, Policy: MovingAveragePolicy{}, Estimator: OracleEstimator{}})
	if err != nil {
		t.Fatal(err)
	}
	// Near the sequence end the lookahead window truncates and the sum
	// covers fewer pictures, so only full windows see the pattern sum.
	for j := 3; j <= 12-3; j++ {
		if math.Abs(s.Rates[j]-30000) > 1e-6 {
			t.Fatalf("r_%d = %v, want pattern average 30000", j, s.Rates[j])
		}
	}
}

// TestK0FallbackRate: a K=0 run whose bound is hopeless must still make
// progress (the defensive rate fallback), transmitting every bit.
func TestK0FallbackRate(t *testing.T) {
	sizes := []int64{5_000_000, 1000, 1000}
	tr := &trace.Trace{Name: "k0", Tau: 0.1, GOP: mpeg.GOP{M: 1, N: 1}, Sizes: sizes}
	s, err := Smooth(tr, Config{K: 0, H: 1, D: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range s.Rates {
		if math.IsInf(r, 0) || math.IsNaN(r) || r <= 0 {
			t.Fatalf("rate %d degenerate: %v", j, r)
		}
	}
	if v := s.CheckConservation(); v != -1 {
		t.Fatalf("conservation violated at %d", v)
	}
}
