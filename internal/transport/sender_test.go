package transport

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/mpeg"
)

// instantClock never waits: the Sender's pacing sleeps return at once,
// so a test sees its writes without the schedule's wall time.
type instantClock struct{}

func (instantClock) Now() time.Time                                   { return time.Unix(0, 0) }
func (instantClock) Sleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// writeLog records every Write it is handed as a separate copy, so a
// test can compare write boundaries as well as bytes.
type writeLog struct{ writes [][]byte }

func (l *writeLog) Write(p []byte) (int, error) {
	l.writes = append(l.writes, bytes.Clone(p))
	return len(p), nil
}

// frameByFrame encodes decisions[start:] with the one-message-per-call
// FrameWriter methods into a bytes.Buffer and returns the writes a
// Sender is expected to make: one per chunk, the first of each picture
// carrying its rate notification (when the rate changed) and header.
func frameByFrame(t *testing.T, decisions []core.Decision, typeOf func(int) mpeg.PictureType, payloads [][]byte, start, chunk int) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	var writes [][]byte
	cut := func() {
		writes = append(writes, bytes.Clone(buf.Bytes()))
		buf.Reset()
	}
	lastRate := 0.0
	for i := start; i < len(decisions); i++ {
		d, p := decisions[i], payloads[i]
		if d.Rate != lastRate {
			if err := fw.WriteRate(RateNotification{Index: d.Picture, Rate: d.Rate}); err != nil {
				t.Fatal(err)
			}
			lastRate = d.Rate
		}
		if err := fw.WritePictureHeader(d.Picture, typeOf(d.Picture), p); err != nil {
			t.Fatal(err)
		}
		for sent := 0; sent < len(p); sent += chunk {
			if err := fw.WriteChunk(p[sent:min(sent+chunk, len(p))]); err != nil {
				t.Fatal(err)
			}
			cut()
		}
	}
	if err := fw.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	cut()
	return writes
}

// TestSenderWireIdentity pins the Sender's coalesced writes to the
// frame-by-frame encoding: the same bytes in exactly ceil(size/Chunk)
// writes per picture, plus one for the end marker. The cases cover
// rate changes and steady rates, a resumed start, and chunks both
// smaller and larger than the pictures.
func TestSenderWireIdentity(t *testing.T) {
	sizes := []int{1500, 700, 700, 4096, 9000, 1, 300, 2048}
	rates := []float64{4e6, 4e6, 2e6, 2e6, 2e6, 8e6, 8e6, 4e6}
	decisions := make([]core.Decision, len(sizes))
	payloads := make([][]byte, len(sizes))
	for i, n := range sizes {
		decisions[i] = core.Decision{Picture: i, Rate: rates[i], Start: float64(i) / 30}
		payloads[i] = make([]byte, n)
		for j := range payloads[i] {
			payloads[i][j] = byte(i*31 + j)
		}
	}
	gop := mpeg.GOP{N: 6, M: 3}
	for _, chunk := range []int{512, 2048, 1 << 16} {
		for _, start := range []int{0, 3} {
			t.Run(fmt.Sprintf("chunk%d/start%d", chunk, start), func(t *testing.T) {
				var got writeLog
				s := &Sender{Chunk: chunk, Clock: instantClock{}}
				if err := s.sendFrom(t.Context(), NewFrameWriter(&got), decisions, gop.TypeOf, payloads, start); err != nil {
					t.Fatal(err)
				}
				want := frameByFrame(t, decisions, gop.TypeOf, payloads, start, chunk)
				if !bytes.Equal(bytes.Join(got.writes, nil), bytes.Join(want, nil)) {
					t.Fatal("coalesced bytes differ from the frame-by-frame encoding")
				}
				writes := 1 // the end marker
				for _, p := range payloads[start:] {
					writes += (len(p) + chunk - 1) / chunk
				}
				if len(got.writes) != writes || len(want) != writes {
					t.Fatalf("%d writes (frame-by-frame cut %d), want ceil(size/%d) per picture + 1 = %d",
						len(got.writes), len(want), chunk, writes)
				}
				for k := range want {
					if !bytes.Equal(got.writes[k], want[k]) {
						t.Fatalf("write %d: %d bytes, want %d", k, len(got.writes[k]), len(want[k]))
					}
				}
			})
		}
	}
}

// TestSenderRejectsEmptyPicture keeps the header validation on the
// coalesced path: nothing reaches the wire for an empty payload.
func TestSenderRejectsEmptyPicture(t *testing.T) {
	var got writeLog
	s := &Sender{Clock: instantClock{}}
	err := s.SendDecisions(t.Context(), NewFrameWriter(&got),
		[]core.Decision{{Picture: 0, Rate: 1e6}}, func(int) mpeg.PictureType { return mpeg.TypeI }, [][]byte{{}})
	if err == nil || len(got.writes) != 0 {
		t.Fatalf("empty picture: err %v, %d writes", err, len(got.writes))
	}
}
