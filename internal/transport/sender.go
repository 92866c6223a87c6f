package transport

import (
	"context"
	"fmt"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/mpeg"
)

// Clock abstracts time for the paced sender so tests can run with
// compressed timescales.
type Clock interface {
	Now() time.Time
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock, returning early if ctx is cancelled.
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Sender transmits a smoothing schedule over a connection, pacing each
// picture's bytes at its scheduled rate.
type Sender struct {
	// Chunk is the pacing granularity in bytes (default 1024): the sender
	// writes at most Chunk bytes, then sleeps until the pacing deadline
	// for the next chunk. A picture costs ceil(size/Chunk) writes: its
	// rate notification and header frame ride the first chunk's write.
	Chunk int
	// Clock defaults to RealClock.
	Clock Clock
	// TimeScale compresses the schedule's timeline: wall-clock durations
	// are schedule durations divided by TimeScale (default 1; tests use
	// large factors to replay multi-second schedules in milliseconds).
	TimeScale float64
	// WriteTimeout arms a write deadline per message and payload chunk
	// (the mirror of Receiver.ReadTimeout) so a dead or stalled receiver
	// cannot wedge the sender goroutine. Zero means no deadline; it
	// takes effect only when the connection supports write deadlines.
	WriteTimeout time.Duration
}

// Send replays the schedule over w: for each picture it waits until the
// scheduled start time t_i (relative to the session origin), emits the
// rate notification, and streams the picture's payload paced at r_i.
// payloads[i] must hold ceil(S_i/8) bytes of picture i's data.
//
// Send is a wrapper over SendDecisions: the schedule's per-picture
// arrays are the stored form of the Session decision stream the sender
// actually consumes.
func (s *Sender) Send(ctx context.Context, w *FrameWriter, sched *core.Schedule, payloads [][]byte) error {
	decisions := make([]core.Decision, len(sched.Rates))
	for i := range decisions {
		decisions[i] = core.Decision{Picture: i, Rate: sched.Rates[i], Start: sched.Start[i]}
	}
	return s.SendDecisions(ctx, w, decisions, sched.Trace.TypeOf, payloads)
}

// SendDecisions paces pictures over w directly from a Session's decision
// stream: for each decision it waits until the scheduled start time
// (relative to the session origin), emits a rate notification when the
// rate changed, and streams the picture's payload paced at the decided
// rate. typeOf supplies the picture type for wire headers (for a pure
// GOP-pattern stream, gop.TypeOf); payloads[i] holds picture
// decisions[i].Picture's data, ceil(S_i/8) bytes.
func (s *Sender) SendDecisions(ctx context.Context, w *FrameWriter, decisions []core.Decision, typeOf func(int) mpeg.PictureType, payloads [][]byte) error {
	if len(payloads) != len(decisions) {
		return fmt.Errorf("transport: %d payloads for %d pictures", len(payloads), len(decisions))
	}
	return s.sendFrom(ctx, w, decisions, typeOf, payloads, 0)
}

// sendFrom paces decisions[start:] over w. For start > 0 (a resumed
// stream) the pacing origin is shifted so the replay point transmits
// immediately; the remaining schedule then keeps its original
// inter-picture spacing, which bounds the delay overshoot by the outage
// duration.
func (s *Sender) sendFrom(ctx context.Context, w *FrameWriter, decisions []core.Decision, typeOf func(int) mpeg.PictureType, payloads [][]byte, start int) error {
	chunk := s.Chunk
	if chunk <= 0 {
		chunk = 1024
	}
	clock := s.Clock
	if clock == nil {
		clock = RealClock{}
	}
	scale := s.TimeScale
	if scale <= 0 {
		scale = 1
	}
	if s.WriteTimeout > 0 && w.WriteTimeout == 0 {
		w.WriteTimeout = s.WriteTimeout
	}
	origin := clock.Now()
	if start > 0 && start < len(decisions) {
		origin = origin.Add(-time.Duration(decisions[start].Start / scale * float64(time.Second)))
	}
	deadline := func(schedTime float64) time.Time {
		return origin.Add(time.Duration(schedTime / scale * float64(time.Second)))
	}

	lastRate := 0.0
	for i := start; i < len(decisions); i++ {
		d := decisions[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		// Wait for the scheduled start of the picture (continuous
		// service makes this a no-op after the first picture, modulo
		// pacing error).
		if err := clock.Sleep(ctx, deadline(d.Start).Sub(clock.Now())); err != nil {
			return err
		}
		// The rate notification (when the rate changed), the header
		// and the first chunk leave in one write; see writePicture.
		var notify *RateNotification
		if d.Rate != lastRate {
			notify = &RateNotification{Index: d.Picture, Rate: d.Rate}
		}
		payload := payloads[i]
		sent := min(chunk, len(payload))
		if err := w.writePicture(notify, d.Picture, typeOf(d.Picture), payload, sent); err != nil {
			return fmt.Errorf("transport: picture %d: %w", d.Picture, err)
		}
		lastRate = d.Rate
		// Pace the payload: after sending b bytes, the elapsed schedule
		// time must be at least 8b/r_i.
		for {
			if err := clock.Sleep(ctx, deadline(d.Start+float64(sent)*8/d.Rate).Sub(clock.Now())); err != nil {
				return err
			}
			if sent == len(payload) {
				break
			}
			end := min(sent+chunk, len(payload))
			if err := w.WriteChunk(payload[sent:end]); err != nil {
				return fmt.Errorf("transport: picture %d payload: %w", d.Picture, err)
			}
			sent = end
		}
	}
	if err := w.WriteEnd(); err != nil {
		return fmt.Errorf("transport: end marker: %w", err)
	}
	return nil
}
