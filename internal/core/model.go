// Package core implements the lossless smoothing algorithm of Lam, Chow,
// and Yau, "An Algorithm for Lossless Smoothing of MPEG Video" (SIGCOMM
// 1994), together with the ideal smoothing reference of Section 3.2, an
// offline optimal baseline in the spirit of Ott et al., and the system
// model of Section 4.1.
//
// # System model
//
// Pictures arrive to a FIFO queue from an encoder: the S_i bits of picture
// i arrive during the interval ((i−1)τ, iτ]. A server drains the queue at
// a per-picture rate r_i chosen by the algorithm when it can begin sending
// picture i:
//
//	t_i = max(d_{i−1}, (i−1+K)τ)                          (2)
//	d_i = t_i + S_i / r_i                                  (3)
//	delay_i = d_i − (i−1)τ                                 (4)
//
// The algorithm is parameterized by K (pictures with known sizes before
// sending starts), D (per-picture delay bound), and H (lookahead
// interval). Theorem 1 guarantees that for K ≥ 1, choosing every r_i in
// [r_i^L, r_i^U] — equations (5) and (6) — satisfies the delay bound and
// continuous service (t_{i+1} = d_i).
//
// Go code uses 0-based picture indices j = i−1; the equations above are
// translated accordingly and the unit tests pin the translation to
// hand-computed schedules.
package core

import (
	"fmt"
	"math"

	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/trace"
)

// Config parameterizes a smoothing run.
type Config struct {
	// K is the required number of complete pictures buffered before the
	// server may begin sending the next picture. Theorem 1 requires K ≥ 1
	// for the delay bound to be guaranteed; K = 0 is permitted for
	// experiments and may violate the bound.
	K int
	// D is the per-picture delay bound in seconds. Must satisfy
	// D ≥ (K+1)τ for the bound to be satisfiable (Eq. 1).
	D float64
	// H is the lookahead interval in pictures (H ≥ 1). The inner loop
	// examines pictures i .. i+H−1. SmoothAll (only) resolves H = 0 to
	// each trace's pattern length N — the paper's usual choice, and the
	// form that lets one Config serve a batch of traces with different
	// patterns.
	H int
	// Policy owns rate selection within the accumulated Theorem 1 band.
	// nil means BasicPolicy.
	Policy Policy
	// Estimator supplies sizes for pictures that have not arrived.
	// Defaults to PatternEstimator with the paper's initial estimates.
	Estimator Estimator
}

// Validate checks the configuration against the trace's picture period.
func (c Config) Validate(tau float64) error {
	if c.K < 0 {
		return fmt.Errorf("core: K = %d must be >= 0", c.K)
	}
	if c.H < 1 {
		return fmt.Errorf("core: H = %d must be >= 1", c.H)
	}
	if c.D <= 0 {
		return fmt.Errorf("core: D = %v must be positive", c.D)
	}
	// Eq. (1): D >= (K+1)τ. Required for K >= 1; for the K = 0
	// experiments any positive D is accepted (violations are the point).
	if c.K >= 1 && c.D < float64(c.K+1)*tau-1e-12 {
		return fmt.Errorf("core: D = %v violates D >= (K+1)τ = %v", c.D, float64(c.K+1)*tau)
	}
	if v, ok := c.Policy.(policyValidator); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Schedule is the output of a smoothing run: per-picture rates and the
// resulting timing, all in seconds and bits/second.
type Schedule struct {
	Trace  *trace.Trace
	Config Config
	Rates  []float64 // r_i selected for each picture
	Start  []float64 // t_i: time the server begins sending picture i
	Depart []float64 // d_i: time the last bit of picture i leaves
	Delays []float64 // delay_i = d_i − arrival start of picture i
	// LowerBound and UpperBound record the Theorem 1 bounds r^L, r^U
	// (h = 0, actual S_i) at each t_i, for verification.
	LowerBound []float64
	UpperBound []float64
}

// RateFunc returns r(t) as a step function over [t_1, d_n).
func (s *Schedule) RateFunc() (*metrics.StepFunc, error) {
	n := len(s.Rates)
	times := make([]float64, 0, n)
	values := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Guard against zero-length sends (cannot happen with positive
		// sizes, but keep the step function valid regardless).
		if len(times) > 0 && s.Start[i] <= times[len(times)-1] {
			continue
		}
		times = append(times, s.Start[i])
		values = append(values, s.Rates[i])
	}
	return metrics.NewStepFunc(times, values, s.Depart[n-1])
}

// PeakRate returns the largest per-picture transmission rate: the
// schedule's traffic descriptor. A sender declares it in a transport
// StreamHello, and an admission controller reserves it against a shared
// link — the sum of admitted peaks never exceeding the link capacity is
// what makes the multiplexing of Section 5 lossless.
func (s *Schedule) PeakRate() float64 {
	peak := 0.0
	for _, r := range s.Rates {
		if r > peak {
			peak = r
		}
	}
	return peak
}

// MaxDelay returns the largest per-picture delay.
func (s *Schedule) MaxDelay() float64 {
	max := 0.0
	for _, d := range s.Delays {
		if d > max {
			max = d
		}
	}
	return max
}

// CheckDelayBound verifies delay_i <= D for every picture (Theorem 1,
// property (7)). It returns the first violating picture, or -1.
func (s *Schedule) CheckDelayBound() int {
	for i, d := range s.Delays {
		if d > s.Config.D+1e-9 {
			return i
		}
	}
	return -1
}

// CheckContinuousService verifies t_{i+1} = d_i for every picture
// (Theorem 1, property (9)). It returns the first violating picture
// boundary, or -1.
func (s *Schedule) CheckContinuousService() int {
	for i := 1; i < len(s.Start); i++ {
		if math.Abs(s.Start[i]-s.Depart[i-1]) > 1e-9 {
			return i
		}
	}
	return -1
}

// CheckRatesWithinBounds verifies r_i ∈ [r_i^L, r_i^U] (the hypothesis of
// Theorem 1). It returns the first violating picture, or -1.
func (s *Schedule) CheckRatesWithinBounds() int {
	for i, r := range s.Rates {
		if r < s.LowerBound[i]*(1-1e-12)-1e-9 || r > s.UpperBound[i]*(1+1e-12)+1e-9 {
			return i
		}
	}
	return -1
}

// PolicyViolations is the policy's violation report: the pictures whose
// selected rate lies outside the Theorem 1 band. For K ≥ 1 and a
// band-respecting policy (BasicPolicy, MovingAveragePolicy,
// MinimumVariability) it is always empty; a CappedRate ceiling below the
// band's lower bound forces entries here — each one a picture whose
// delay bound the cap made unavoidable (Verify reports the resulting
// delay violation too).
func (s *Schedule) PolicyViolations() []int {
	var out []int
	for i, r := range s.Rates {
		if r < s.LowerBound[i]*(1-1e-12)-1e-9 || r > s.UpperBound[i]*(1+1e-12)+1e-9 {
			out = append(out, i)
		}
	}
	return out
}

// CheckConservation verifies that every picture's bits are fully
// transmitted: (d_i − t_i)·r_i = S_i. It returns the first violating
// picture, or -1.
func (s *Schedule) CheckConservation() int {
	for i := range s.Rates {
		sent := (s.Depart[i] - s.Start[i]) * s.Rates[i]
		if math.Abs(sent-float64(s.Trace.Sizes[i])) > 1e-6*float64(s.Trace.Sizes[i])+1e-3 {
			return i
		}
	}
	return -1
}

// CheckCausality verifies the server never sends bits of a picture that
// has not fully arrived when K >= 1: t_i >= iτ for 0-based i (the picture
// arrives during (iτ, (i+1)τ] ... with K >= 1, t_i >= (i+K)τ >= (i+1)τ).
// It returns the first violating picture, or -1.
func (s *Schedule) CheckCausality() int {
	if s.Config.K < 1 {
		return -1
	}
	tau := s.Trace.Tau
	for i := range s.Start {
		if s.Start[i] < float64(i+1)*tau-1e-9 {
			return i
		}
	}
	return -1
}
