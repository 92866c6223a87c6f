package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/trace"
)

// randomTrace draws a random trace with MPEG-like size structure.
func randomTrace(rng *rand.Rand) *trace.Trace {
	gops := []mpeg.GOP{{M: 3, N: 9}, {M: 2, N: 6}, {M: 1, N: 5}, {M: 3, N: 12}, {M: 1, N: 1}}
	g := gops[rng.Intn(len(gops))]
	n := rng.Intn(120) + 1
	sizes := make([]int64, n)
	for j := 0; j < n; j++ {
		var base int64
		switch g.TypeOf(j) {
		case mpeg.TypeI:
			base = 50_000 + int64(rng.Intn(400_000))
		case mpeg.TypeP:
			base = 20_000 + int64(rng.Intn(150_000))
		default:
			base = 2_000 + int64(rng.Intn(60_000))
		}
		sizes[j] = base
	}
	return &trace.Trace{Name: "random", Tau: 1.0 / 30, GOP: g, Sizes: sizes}
}

// randomConfig draws a valid configuration with K >= 1.
func randomConfig(rng *rand.Rand, tr *trace.Trace) Config {
	k := rng.Intn(tr.GOP.N) + 1
	slack := rng.Float64() * 0.3
	cfg := Config{
		K: k,
		H: rng.Intn(2*tr.GOP.N) + 1,
		D: float64(k+1)*tr.Tau + slack,
	}
	if rng.Intn(2) == 1 {
		cfg.Policy = MovingAveragePolicy{}
	}
	switch rng.Intn(4) {
	case 0:
		cfg.Estimator = PatternEstimator{}
	case 1:
		cfg.Estimator = TypeMeanEstimator{}
	case 2:
		cfg.Estimator = EWMAEstimator{Alpha: rng.Float64()}
	case 3:
		cfg.Estimator = OracleEstimator{}
	}
	return cfg
}

// TestTheorem1Property is the paper's Theorem 1 as a property test: for
// ANY trace, ANY K >= 1, ANY D >= (K+1)τ, ANY H >= 1, ANY estimator and
// variant, the algorithm satisfies the delay bound, continuous service,
// and the per-picture rate bounds.
func TestTheorem1Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		cfg := randomConfig(rng, tr)
		s, err := Smooth(tr, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if v := s.CheckDelayBound(); v != -1 {
			t.Logf("seed %d cfg %+v: delay bound violated at %d (%.6f > %.6f)",
				seed, cfg, v, s.Delays[v], cfg.D)
			return false
		}
		if v := s.CheckContinuousService(); v != -1 {
			t.Logf("seed %d cfg %+v: continuous service violated at %d", seed, cfg, v)
			return false
		}
		if v := s.CheckRatesWithinBounds(); v != -1 {
			t.Logf("seed %d cfg %+v: rate bounds violated at %d (r=%.2f not in [%.2f, %.2f])",
				seed, cfg, v, s.Rates[v], s.LowerBound[v], s.UpperBound[v])
			return false
		}
		if v := s.CheckConservation(); v != -1 {
			t.Logf("seed %d cfg %+v: conservation violated at %d", seed, cfg, v)
			return false
		}
		if v := s.CheckCausality(); v != -1 {
			t.Logf("seed %d cfg %+v: causality violated at %d", seed, cfg, v)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCorollary1Property: the Theorem 1 bounds never cross when
// D >= (K+1)τ — a valid rate always exists (Corollary 1).
func TestCorollary1Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		cfg := randomConfig(rng, tr)
		s, err := Smooth(tr, cfg)
		if err != nil {
			return false
		}
		for j := range s.Rates {
			if s.LowerBound[j] > s.UpperBound[j]*(1+1e-9) {
				t.Logf("seed %d: bounds crossed at %d: %.2f > %.2f",
					seed, j, s.LowerBound[j], s.UpperBound[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOfflineProperty: the taut-string schedule satisfies causality and
// the delay bound on arbitrary traces, and its peak rate never exceeds
// the online algorithm's.
func TestOfflineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		D := float64(2)*tr.Tau + rng.Float64()*0.3
		o, err := OfflineSmooth(tr, D)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if o.CheckDelayBound() != -1 || o.CheckCausality() != -1 {
			t.Logf("seed %d: offline constraints violated", seed)
			return false
		}
		s, err := Smooth(tr, Config{K: 1, H: tr.GOP.N, D: D})
		if err != nil {
			return false
		}
		f2, err := s.RateFunc()
		if err != nil {
			return false
		}
		if o.PeakRate() > f2.Max()*(1+1e-6) {
			t.Logf("seed %d: offline peak %.1f > online %.1f", seed, o.PeakRate(), f2.Max())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestIdealProperty: ideal smoothing transmits every bit and each block's
// rate equals its pattern average.
func TestIdealProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		s, err := Ideal(tr)
		if err != nil {
			return false
		}
		if s.CheckConservation() != -1 {
			return false
		}
		N := tr.GOP.N
		for from := 0; from < tr.Len(); from += N {
			to := from + N
			if to > tr.Len() {
				to = tr.Len()
			}
			var sum float64
			for j := from; j < to; j++ {
				sum += float64(tr.Sizes[j])
			}
			want := sum / (float64(to-from) * tr.Tau)
			for j := from; j < to; j++ {
				if d := s.Rates[j] - want; d > 1e-6 || d < -1e-6 {
					return false
				}
			}
			// No picture in the block departs before the whole block has
			// arrived... the block cannot START before; departures follow.
			if s.Start[from] < float64(to)*tr.Tau-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
