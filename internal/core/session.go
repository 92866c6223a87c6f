package core

import (
	"errors"
	"fmt"

	"mpegsmooth/internal/mpeg"
)

// Session is the unified driver around the decision kernel: every
// consumer — the offline Smooth, live smoothing, the
// paced transport sender, the batch runner SmoothAll — is a thin layer
// over one Session. Picture sizes are pushed in display order as they
// become known, and rate decisions are returned as soon as their inputs
// are determined; Close marks the end of the sequence and flushes the
// remainder, bounding the lookahead at the sequence end exactly as the
// offline algorithm does.
//
// A decision for picture j is computable once
//
//   - pictures j .. j+K−1 have been pushed (Eq. 2's arrival condition),
//   - every picture visible at t_j — i.e. with (i+1)τ ≤ t_j — has been
//     pushed, so the estimator's view is complete, and
//   - the existence of the H-picture lookahead window is settled, which
//     before Close means pictures j .. j+H−1 have been pushed.
//
// A Session is single-goroutine by design (it is not safe for
// concurrent use); SmoothAll scales across streams by sharding whole
// sessions over a worker pool, never by sharing one.
type Session struct {
	cfg    Config
	engine *engine
	sizes  []int64

	next     int // next picture awaiting a decision
	depart   float64
	rate     float64
	peak     float64
	closed   bool
	observer Observer
}

// Decision reports one scheduled picture. The first seven fields mirror
// Schedule's per-picture arrays; the rest expose the kernel's view of
// the decision for observers and live consumers.
type Decision struct {
	Picture              int
	Rate                 float64
	Start, Depart, Delay float64
	// Lower and Upper are the Theorem 1 (h = 0, actual size) bounds.
	Lower, Upper float64
	// BandLower and BandUpper are the accumulated lookahead band the
	// policy selected within (Eqs. 12–13 at loop exit).
	BandLower, BandUpper float64
	// Depth is the lookahead depth at exit: how many pictures the bound
	// accumulation examined before crossing, exhausting H, or hitting
	// the sequence end.
	Depth int
	// EstimatorError is the relative error of the estimated bits over
	// the not-yet-arrived part of the window, (est − actual)/actual;
	// 0 when the window held no estimates.
	EstimatorError float64
	// OutOfBand reports that the selected rate violates the Theorem 1
	// band — possible only under a policy that trades bound violations
	// for its own constraint (CappedRate) or in K = 0 runs.
	OutOfBand bool
}

// Observation is the per-decision measurement handed to an Observer.
type Observation struct {
	// Picture and Rate identify the decision.
	Picture int
	Rate    float64
	// LowerSlack and UpperSlack are the margins Rate keeps to the
	// Theorem 1 (h = 0, actual size) bounds — negative exactly when the
	// decision is OutOfBand, i.e. a policy traded a bound violation for
	// its own constraint.
	LowerSlack, UpperSlack float64
	// Depth is the lookahead depth at exit.
	Depth int
	// EstimatorError is the relative window estimation error.
	EstimatorError float64
}

// Observer receives one callback per emitted decision, in picture
// order, before the decision is returned to the caller. Observations
// feed metrics collectors (see metrics.DecisionStats); the hook must
// not retain the Session.
type Observer func(Observation)

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithObserver installs a per-decision observer hook.
func WithObserver(o Observer) SessionOption {
	return func(s *Session) { s.observer = o }
}

// withTypes supplies explicit per-picture types for adaptive-pattern
// traces (used by Smooth; live streams follow the GOP pattern).
func withTypes(types []mpeg.PictureType) SessionOption {
	return func(s *Session) { s.engine.types = types }
}

// NewSession prepares a smoothing session for a stream with the given
// picture period and coding pattern.
func NewSession(tau float64, gop mpeg.GOP, cfg Config, opts ...SessionOption) (*Session, error) {
	if tau <= 0 {
		return nil, fmt.Errorf("core: non-positive picture period %v", tau)
	}
	if err := gop.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(tau); err != nil {
		return nil, err
	}
	if cfg.Estimator == nil {
		cfg.Estimator = PatternEstimator{}
	}
	s := &Session{
		cfg:    cfg,
		engine: newEngine(cfg, tau, gop, nil),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Push appends the size of the next encoded picture (display order) and
// returns any decisions that became determined. Invalid input — a push
// after Close, or a non-positive size — is rejected before any state is
// touched, so a failed Push never perturbs the schedule.
func (s *Session) Push(size int64) ([]Decision, error) {
	if s.closed {
		return nil, errors.New("core: Push after Close")
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: non-positive picture size %d", size)
	}
	s.sizes = append(s.sizes, size)
	return s.drain(), nil
}

// Close marks the end of the picture sequence and returns all remaining
// decisions. Close is idempotent.
func (s *Session) Close() []Decision {
	s.closed = true
	return s.drain()
}

// Pushed returns the number of picture sizes received so far.
func (s *Session) Pushed() int { return len(s.sizes) }

// Pending returns the number of pushed pictures that do not yet have a
// rate decision.
func (s *Session) Pending() int { return len(s.sizes) - s.next }

// Policy returns the session's effective rate-selection policy.
func (s *Session) Policy() Policy { return s.engine.policy }

// PeakRate returns the maximum transmission rate decided so far in
// bits/second (0 before the first decision): the stream's running
// traffic descriptor, which admission control reserves against a shared
// link. For a completed session it equals Schedule.PeakRate of the
// equivalent offline run.
func (s *Session) PeakRate() float64 { return s.peak }

// runAll consumes a complete, already-validated size sequence in one
// shot — the offline mode: push all, close. Because the sequence length
// is known before the first decision, every decide call sees the bounded
// lookahead directly, exactly as the paper's Figure 2 loop does.
func (s *Session) runAll(sizes []int64) []Decision {
	s.sizes = sizes
	s.closed = true
	return s.drain()
}

// drain emits every decision whose inputs are determined.
func (s *Session) drain() []Decision {
	var out []Decision
	tau := s.engine.tau
	for s.next < len(s.sizes) {
		j := s.next
		a := len(s.sizes)
		if !s.closed {
			// Arrival condition: pictures j..j+K−1 pushed.
			if a < j+s.cfg.K {
				break
			}
			// Lookahead existence: the offline algorithm would examine
			// pictures j..j+H−1 unless the sequence ends first; before
			// Close we cannot know it ends, so wait for them.
			if a < j+s.cfg.H {
				break
			}
			// View completeness: every picture visible at t_j must be
			// pushed. t_j is already determined by depart and (j+K)τ.
			now := s.depart
			if t := float64(j+s.cfg.K) * tau; t > now {
				now = t
			}
			// Count pictures with (i+1)τ <= now using the same float
			// comparison View.Arrived uses, so live and offline views
			// agree bit for bit.
			visible := int(now / tau)
			for float64(visible+1)*tau <= now {
				visible++
			}
			for visible > 0 && float64(visible)*tau > now {
				visible--
			}
			if visible > a {
				break
			}
		}
		end := -1
		if s.closed {
			end = len(s.sizes)
		}
		d := s.engine.decide(j, s.sizes, s.depart, s.rate, end)
		s.depart, s.rate = d.Depart, d.Rate
		if d.Rate > s.peak {
			s.peak = d.Rate
		}
		s.next++
		if s.observer != nil {
			s.observer(Observation{
				Picture:        d.Picture,
				Rate:           d.Rate,
				LowerSlack:     d.Rate - d.Lower,
				UpperSlack:     d.Upper - d.Rate,
				Depth:          d.Depth,
				EstimatorError: d.EstimatorError,
			})
		}
		out = append(out, d)
	}
	return out
}
