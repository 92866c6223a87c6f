package core

import (
	"math"

	"mpegsmooth/internal/mpeg"
)

// engine is the decision kernel shared by every driver (the offline
// Smooth and the incremental Session): one call of decide
// corresponds to one pass of the outer loop in the paper's Figure 2
// specification. The kernel owns the Theorem 1 bound accumulation
// (Eqs. 12–13); rate selection within (or, for CappedRate, against) the
// accumulated band is delegated to the configured Policy.
type engine struct {
	cfg    Config
	policy Policy
	tau    float64
	gop    mpeg.GOP
	types  []mpeg.PictureType // explicit types for adaptive-pattern traces
}

// newEngine resolves the configured policy once so decide stays
// allocation-free on the hot path.
func newEngine(cfg Config, tau float64, gop mpeg.GOP, types []mpeg.PictureType) *engine {
	return &engine{cfg: cfg, policy: cfg.policy(), tau: tau, gop: gop, types: types}
}

// decide schedules picture j.
//
//	sizes    the prefix of picture sizes the system has learned so far;
//	         must include picture j and every picture visible at t_j,
//	         plus the whole lookahead window the caller admits
//	depart   d_{j-1} (0 for the first picture)
//	held     the rate selected for picture j−1 (the basic policy holds it)
//	end      total sequence length if known, else -1 (live operation):
//	         bounds the lookahead at the end of a finite sequence
func (e *engine) decide(j int, sizes []int64, depart, held float64, end int) Decision {
	cfg := e.cfg
	tau := e.tau
	// Eq. (2): the server may begin sending picture j once the previous
	// picture has departed and pictures j .. j+K−1 have arrived (the
	// K-th arrives by (j+K)τ in 0-based indexing).
	now := math.Max(depart, float64(j+cfg.K)*tau)
	view := View{tau: tau, gop: e.gop, types: e.types, sizes: sizes, now: now}

	// Inner lookahead loop: accumulate the running max of lower bounds
	// (12) and min of upper bounds (13) for h = 0 .. H−1. Estimated and
	// actual contributions are tracked separately so the estimator's
	// window error can be observed per decision.
	var (
		sum      float64
		lower    = 0.0
		upper    = math.Inf(1)
		lowerOld = 0.0
		upperOld = math.Inf(1)
		estSum   float64 // estimated bits for not-yet-arrived pictures
		actSum   float64 // their actual bits (always known to the driver)
	)
	h := 0
	for {
		if end >= 0 && j+h >= end {
			break // finite sequence: nothing to look ahead at
		}
		if actual, ok := view.Size(j + h); ok {
			sum += float64(actual)
		} else {
			est := float64(cfg.Estimator.Estimate(j+h, view))
			sum += est
			estSum += est
			actSum += float64(sizes[j+h])
		}
		lowerOld, upperOld = lower, upper
		l := math.Inf(1)
		if den := cfg.D + float64(j+h)*tau - now; den > 0 {
			l = sum / den
		}
		u := math.Inf(1)
		if ub := float64(cfg.K+j+1+h) * tau; now < ub {
			u = sum / (ub - now)
		}
		lower = math.Max(l, lower)
		upper = math.Min(u, upper)
		h++
		if lower > upper || h >= cfg.H {
			break
		}
	}

	bounds := Bounds{
		Lower: lower, Upper: upper,
		LowerPrev: lowerOld, UpperPrev: upperOld,
		Crossed: lower > upper,
		Sum:     sum,
		Depth:   h,
	}
	rate := e.policy.Select(bounds, State{
		Picture:  j,
		Held:     held,
		Now:      now,
		Tau:      tau,
		PatternN: e.gop.N,
	})
	if math.IsInf(rate, 1) || rate <= 0 {
		// Only reachable in K = 0 runs whose delay bound is already
		// unsatisfiable (the lower-bound denominator went negative).
		// Fall back to draining the picture within one period.
		rate = math.Max(float64(sizes[j])/tau, 1)
	}

	// Eqs. (3)–(4) with the picture's ACTUAL size: the transmitter
	// always sends real bits, whatever the estimator believed.
	actual := float64(sizes[j])
	d := Decision{
		Picture:   j,
		Rate:      rate,
		Start:     now,
		Depart:    now + actual/rate,
		BandLower: lower,
		BandUpper: upper,
		Depth:     h,
	}
	d.Delay = d.Depart - float64(j)*tau
	if actSum > 0 {
		d.EstimatorError = (estSum - actSum) / actSum
	}

	// Theorem 1 (h = 0, actual size) bounds for verification.
	d.Lower = math.Inf(1)
	if den := cfg.D + float64(j)*tau - now; den > 0 {
		d.Lower = actual / den
	}
	d.Upper = math.Inf(1)
	if ub := float64(cfg.K+j+1) * tau; now < ub {
		d.Upper = actual / (ub - now)
	}
	// A policy (or the K = 0 fallback) may force a rate outside the
	// Theorem 1 band; record the transgression rather than correct it.
	d.OutOfBand = rate < d.Lower*(1-1e-12)-1e-9 || rate > d.Upper*(1+1e-12)+1e-9
	return d
}
