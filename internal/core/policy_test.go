package core

import (
	"hash/fnv"
	"math"
	"testing"

	"mpegsmooth/internal/trace"
)

// scheduleFingerprint hashes the exact bit patterns of a schedule's
// rates and timing, so two schedules compare bit-for-bit through one
// uint64.
func scheduleFingerprint(s *Schedule) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(x float64) {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf)
	}
	for j := range s.Rates {
		put(s.Rates[j])
		put(s.Start[j])
		put(s.Depart[j])
	}
	return h.Sum64()
}

// TestPolicyGoldenSchedules pins the BasicPolicy and
// MovingAveragePolicy schedules to fingerprints captured from the seed
// (pre-Policy) decision kernel on all four paper sequences (108
// pictures, seed 1, K=1, H=N, D=0.2). Any drift means the refactor
// changed kernel arithmetic, not just its structure.
func TestPolicyGoldenSchedules(t *testing.T) {
	golden := map[string]map[string]uint64{
		"Driving1": {"basic": 0xc7a82ecae498361, "moving-average": 0x895365b70d6924ac},
		"Driving2": {"basic": 0xa00c87213996aa85, "moving-average": 0xc2bedcf6ab4529f4},
		"Tennis":   {"basic": 0xdc4a7c6db4d03ef0, "moving-average": 0x624cfd70d0f092ba},
		"Backyard": {"basic": 0xe75eecf6bbe5cab8, "moving-average": 0x2d758bc7c168e727},
	}
	seqs, err := trace.PaperSequences(108, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range seqs {
		for _, p := range []Policy{BasicPolicy{}, MovingAveragePolicy{}} {
			s, err := Smooth(tr, Config{K: 1, H: tr.GOP.N, D: 0.2, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := scheduleFingerprint(s), golden[tr.Name][p.Name()]; got != want {
				t.Errorf("%s %s: schedule fingerprint %#x, want seed %#x (kernel arithmetic changed)",
					tr.Name, p.Name(), got, want)
			}
		}
	}
}

// TestCappedRateEnforcesCeiling: the cap binds on every picture, and
// when it forces the rate below the Theorem 1 lower bound, the schedule
// reports the violation instead of silently exceeding the ceiling.
func TestCappedRateEnforcesCeiling(t *testing.T) {
	tr := paperTrace(t, 108)
	base, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, r := range base.Rates {
		if r > peak {
			peak = r
		}
	}

	// A cap above the uncapped peak changes nothing.
	loose, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2, Policy: CappedRate{Cap: peak * 2}})
	if err != nil {
		t.Fatal(err)
	}
	if scheduleFingerprint(loose) != scheduleFingerprint(base) {
		t.Error("cap above the peak altered the schedule")
	}
	if v := loose.PolicyViolations(); len(v) != 0 {
		t.Errorf("loose cap reported violations %v", v)
	}

	// A cap at 80% of the peak must bind: every rate at or below it.
	cap := peak * 0.8
	s, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2, Policy: CappedRate{Cap: cap}})
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range s.Rates {
		if r > cap*(1+1e-12) {
			t.Fatalf("picture %d: rate %v exceeds cap %v", j, r, cap)
		}
	}
	// The binding cap forces delay-bound violations; the policy report
	// and the Theorem 1 checks must both account for them.
	viol := s.PolicyViolations()
	if len(viol) == 0 {
		t.Fatal("binding cap reported no policy violations")
	}
	if i := s.CheckRatesWithinBounds(); i == -1 {
		t.Error("binding cap but rates all within Theorem 1 bounds")
	} else if viol[0] != i {
		t.Errorf("first policy violation %d != first bound violation %d", viol[0], i)
	}
	if i := s.CheckDelayBound(); i == -1 {
		t.Error("cap forced rates below the lower bound but no delay violation surfaced")
	}
	// Bits are still conserved and service continuous: the cap degrades
	// delay, not correctness of transmission.
	if i := s.CheckConservation(); i != -1 {
		t.Errorf("conservation violated at %d under cap", i)
	}
	if i := s.CheckContinuousService(); i != -1 {
		t.Errorf("continuous service violated at %d under cap", i)
	}
}

// TestCappedRateValidate rejects non-positive ceilings at Validate time.
func TestCappedRateValidate(t *testing.T) {
	tr := paperTrace(t, 27)
	for _, cap := range []float64{0, -1, math.Inf(1)} {
		if _, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2, Policy: CappedRate{Cap: cap}}); err == nil {
			t.Errorf("cap %v accepted", cap)
		}
	}
}

// TestMinimumVariability: band-centred selection stays within the
// Theorem 1 guarantees and keeps strictly positive slack to both
// accumulated bounds on normal exits (observed via the Session hook).
func TestMinimumVariability(t *testing.T) {
	tr := paperTrace(t, 108)
	cfg := Config{K: 1, H: 9, D: 0.2, Policy: MinimumVariability{}}
	s, err := Smooth(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, check := range []struct {
		name string
		f    func() int
	}{
		{"delay bound", s.CheckDelayBound},
		{"continuous service", s.CheckContinuousService},
		{"rates within bounds", s.CheckRatesWithinBounds},
		{"conservation", s.CheckConservation},
		{"causality", s.CheckCausality},
	} {
		if i := check.f(); i != -1 {
			t.Errorf("%s violated at picture %d", check.name, i)
		}
	}
	if v := s.PolicyViolations(); len(v) != 0 {
		t.Errorf("min-var reported violations %v", v)
	}
	// Compared to basic, centring trades more rate changes for a lower
	// standard deviation ceiling — at minimum it must remain feasible
	// and distinct.
	basic, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if scheduleFingerprint(basic) == scheduleFingerprint(s) {
		t.Error("min-var produced the basic schedule verbatim")
	}
}

// TestParsePolicy covers the flag grammar.
func TestParsePolicy(t *testing.T) {
	for spec, want := range map[string]string{
		"basic":          "basic",
		"moving":         "moving-average",
		"moving-average": "moving-average",
		"min-var":        "min-var",
		"capped:2.5e6":   "capped:2.5e+06(basic)",
		" Basic ":        "basic",
	} {
		p, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spec, err)
		}
		if p.Name() != want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", spec, p.Name(), want)
		}
	}
	for _, bad := range []string{"", "fastest", "capped:", "capped:-3", "capped:x"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}
