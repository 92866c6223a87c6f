package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpegsmooth/internal/mpeg"
)

// collectLive pushes a whole trace through a Session and gathers all
// decisions.
func collectLive(t testing.TB, tau float64, gop mpeg.GOP, cfg Config, sizes []int64) []Decision {
	t.Helper()
	ls, err := NewSession(tau, gop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []Decision
	for _, s := range sizes {
		ds, err := ls.Push(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds...)
	}
	out = append(out, ls.Close()...)
	return out
}

// TestLiveMatchesOffline: the incremental smoother must produce exactly
// the offline schedule, decision for decision.
func TestLiveMatchesOffline(t *testing.T) {
	tr := paperTrace(t, 270)
	for _, cfg := range []Config{
		{K: 1, H: 9, D: 0.2},
		{K: 1, H: 9, D: 0.1},
		{K: 3, H: 18, D: 0.25},
		{K: 9, H: 9, D: 0.1333 + 10.0/30},
		{K: 1, H: 1, D: 0.0667},
		{K: 1, H: 9, D: 0.2, Policy: MovingAveragePolicy{}},
		{K: 1, H: 9, D: 0.2, Estimator: TypeMeanEstimator{}},
	} {
		offline, err := Smooth(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := collectLive(t, tr.Tau, tr.GOP, cfg, tr.Sizes)
		if len(live) != tr.Len() {
			t.Fatalf("%+v: live produced %d decisions, want %d", cfg, len(live), tr.Len())
		}
		for i, d := range live {
			if d.Picture != i {
				t.Fatalf("%+v: decision %d is for picture %d", cfg, i, d.Picture)
			}
			if d.Rate != offline.Rates[i] || d.Start != offline.Start[i] ||
				d.Depart != offline.Depart[i] || d.Delay != offline.Delays[i] {
				t.Fatalf("%+v picture %d: live (r=%v t=%v d=%v) != offline (r=%v t=%v d=%v)",
					cfg, i, d.Rate, d.Start, d.Depart,
					offline.Rates[i], offline.Start[i], offline.Depart[i])
			}
		}
	}
}

// TestLiveMatchesOfflineProperty extends the equivalence to random
// traces and configurations.
func TestLiveMatchesOfflineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		cfg := randomConfig(rng, tr)
		offline, err := Smooth(tr, cfg)
		if err != nil {
			return false
		}
		ls, err := NewSession(tr.Tau, tr.GOP, cfg)
		if err != nil {
			return false
		}
		var live []Decision
		for _, s := range tr.Sizes {
			ds, err := ls.Push(s)
			if err != nil {
				return false
			}
			live = append(live, ds...)
		}
		live = append(live, ls.Close()...)
		if len(live) != tr.Len() {
			t.Logf("seed %d: %d decisions for %d pictures", seed, len(live), tr.Len())
			return false
		}
		for i, d := range live {
			if d.Rate != offline.Rates[i] || d.Start != offline.Start[i] || d.Depart != offline.Depart[i] {
				t.Logf("seed %d cfg %+v picture %d: live %v/%v offline %v/%v",
					seed, cfg, i, d.Rate, d.Start, offline.Rates[i], offline.Start[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLiveEmitsEagerly(t *testing.T) {
	// With K=1 and H=1, a decision for picture j should be available
	// shortly after picture j (plus whatever the view horizon needs) —
	// NOT only at Close.
	gop := mpeg.GOP{M: 3, N: 9}
	ls, err := NewSession(1.0/30, gop, Config{K: 1, H: 1, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for i := 0; i < 90; i++ {
		ds, err := ls.Push(30_000)
		if err != nil {
			t.Fatal(err)
		}
		emitted += len(ds)
	}
	if emitted < 80 {
		t.Fatalf("only %d of 90 decisions emitted before Close", emitted)
	}
	rest := ls.Close()
	if emitted+len(rest) != 90 {
		t.Fatalf("total decisions %d, want 90", emitted+len(rest))
	}
}

func TestLiveValidation(t *testing.T) {
	gop := mpeg.GOP{M: 3, N: 9}
	if _, err := NewSession(0, gop, Config{K: 1, H: 9, D: 0.2}); err == nil {
		t.Error("zero tau should fail")
	}
	if _, err := NewSession(1.0/30, mpeg.GOP{M: 3, N: 10}, Config{K: 1, H: 9, D: 0.2}); err == nil {
		t.Error("bad GOP should fail")
	}
	if _, err := NewSession(1.0/30, gop, Config{K: 1, H: 0, D: 0.2}); err == nil {
		t.Error("bad config should fail")
	}
	ls, err := NewSession(1.0/30, gop, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Push(0); err == nil {
		t.Error("zero size should fail")
	}
	ls.Close()
	if _, err := ls.Push(100); err == nil {
		t.Error("Push after Close should fail")
	}
	// Close is idempotent.
	if extra := ls.Close(); len(extra) != 0 {
		t.Error("second Close emitted decisions")
	}
}

func TestLiveAccessors(t *testing.T) {
	gop := mpeg.GOP{M: 3, N: 9}
	ls, err := NewSession(1.0/30, gop, Config{K: 1, H: 9, D: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ls.Push(50_000); err != nil {
			t.Fatal(err)
		}
	}
	if ls.Pushed() != 5 {
		t.Fatalf("Pushed = %d", ls.Pushed())
	}
	if ls.Pending() < 0 || ls.Pending() > 5 {
		t.Fatalf("Pending = %d", ls.Pending())
	}
	ls.Close()
	if ls.Pending() != 0 {
		t.Fatalf("Pending after Close = %d", ls.Pending())
	}
}

func BenchmarkLivePush(b *testing.B) {
	gop := mpeg.GOP{M: 3, N: 9}
	tr := paperTrace(b, 270)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls, err := NewSession(tr.Tau, gop, Config{K: 1, H: 9, D: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range tr.Sizes {
			if _, err := ls.Push(s); err != nil {
				b.Fatal(err)
			}
		}
		ls.Close()
	}
}
