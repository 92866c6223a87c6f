package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/transport"
)

// TestTombstoneLedgerFloodBounded pins the session table's tombstone
// bound: under a flood of 100k completions with explicit expiry times,
// every completion's sweep leaves exactly the unexpired tombstones —
// the completions of one TTL — and nothing older.
func TestTombstoneLedgerFloodBounded(t *testing.T) {
	tab := newSessionTable()
	base := time.Unix(1000, 0)
	const (
		flood = 100_000
		step  = 100 * time.Microsecond
		ttl   = time.Second
		live  = int(ttl / step) // completions whose tombstone a sweep keeps
	)
	for i := 0; i < flood; i++ {
		now := base.Add(time.Duration(i) * step)
		tab.entomb(uint64(0x100000+i), tombstone{fnv: uint64(i), pictures: i, expires: now.Add(ttl)}, now)
		want := min(i+1, live)
		if len(tab.tombs) != want || len(tab.fifo) != want {
			t.Fatalf("after %d completions: %d tombstones, %d queued, want %d",
				i+1, len(tab.tombs), len(tab.fifo), want)
		}
		if i%4096 == 0 || i == flood-1 {
			for tok, tb := range tab.tombs {
				if !now.Before(tb.expires) {
					t.Fatalf("after %d completions: expired tombstone %x kept", i+1, tok)
				}
			}
		}
	}
	// The newest tombstone is intact.
	last := uint64(0x100000 + flood - 1)
	end := base.Add(time.Duration(flood-1) * step)
	if tb, ok := tab.tomb(last, end); !ok || tb.fnv != flood-1 || tb.pictures != flood-1 {
		t.Errorf("newest tombstone lost or mangled: %+v ok=%v", tb, ok)
	}
}

// TestTombstoneAnswersUntilExpiry: a tombstone answers until its expiry
// and never after, even when it sits in the FIFO behind one that
// expires later (recovered under a longer TTL).
func TestTombstoneAnswersUntilExpiry(t *testing.T) {
	tab := newSessionTable()
	now := time.Unix(1000, 0)
	for _, sec := range []int{10, 20, 30, 5} {
		tab.entomb(uint64(sec), tombstone{pictures: sec, expires: now.Add(time.Duration(sec) * time.Second)}, now)
	}
	for _, sec := range []uint64{5, 10, 20, 30} {
		exp := now.Add(time.Duration(sec) * time.Second)
		if tb, ok := tab.tomb(sec, exp.Add(-time.Nanosecond)); !ok || tb.pictures != int(sec) {
			t.Errorf("tombstone %d not answered just before its expiry: %+v ok=%v", sec, tb, ok)
		}
		if _, ok := tab.tomb(sec, exp); ok {
			t.Errorf("tombstone %d answered at its expiry", sec)
		}
	}
	// A completion at 20s sweeps the expired head, in order, up to the
	// first live entry; the out-of-order one behind it waits its turn.
	later := now.Add(20 * time.Second)
	tab.entomb(99, tombstone{expires: later.Add(time.Minute)}, later)
	if len(tab.tombs) != 3 || len(tab.fifo) != 3 || tab.fifo[0].token != 30 || tab.fifo[2].token != 99 {
		t.Errorf("sweep left %d tombstones, fifo %+v; want 30, 5, 99", len(tab.tombs), tab.fifo)
	}
	// Once the head expires, the late entry goes with it.
	last := now.Add(30 * time.Second)
	tab.entomb(100, tombstone{expires: last.Add(time.Minute)}, last)
	if len(tab.tombs) != 2 || len(tab.fifo) != 2 || tab.fifo[0].token != 99 {
		t.Errorf("sweep left %d tombstones, fifo %+v; want 99, 100", len(tab.tombs), tab.fifo)
	}

	// End to end: a resume is answered AlreadyComplete until the
	// tombstone expires, then rejected as an unknown token.
	srv, addr := startServer(t, Config{LinkRate: 1e9, ResumeWindow: time.Second})
	const token = 0xFEEDFACE
	expires := time.Now().Add(300 * time.Millisecond)
	srv.mu.Lock()
	srv.sessions.entomb(token, tombstone{fnv: 0xABC, pictures: 10, expires: expires}, time.Now())
	srv.mu.Unlock()
	resume := func() transport.Verdict {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := transport.NewFrameWriter(conn).WriteResume(transport.StreamResume{Token: token}); err != nil {
			t.Fatal(err)
		}
		v, err := transport.NewFrameReader(conn).ReadVerdictTimeout(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := resume(); v.Code != transport.AlreadyComplete || v.NextIndex != 10 || v.PrefixFNV != 0xABC {
		t.Fatalf("resume inside the tombstone's life: %+v", v)
	}
	time.Sleep(time.Until(expires))
	if v := resume(); v.Code != transport.RejectedMalformed {
		t.Fatalf("resume after the tombstone expired: %+v, want rejected-malformed", v)
	}
	if got := srv.Snapshot().Streams.AlreadyComplete; got != 1 {
		t.Errorf("already_complete %d, want 1", got)
	}
}

// TestRecoveredStreamNonceDedup: a journal-recovered stream's
// reservation is not counted as an admission, and its nonce dedups a
// retransmitted hello — reattached to the recovered stream, with no
// second reservation.
func TestRecoveredStreamNonceDedup(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	dir := t.TempDir()
	cfg := Config{LinkRate: 4 * kit.hello.PeakRate, ReadTimeout: 5 * time.Second, ResumeWindow: 20 * time.Second}
	gen1, addr := startGeneration(t, cfg, dir, "")
	kit.hello.Nonce = 0xBEEF
	conn, _, v := kit.handshake(t, addr)
	defer conn.Close()
	if !v.IsAdmitted() || v.ResumeToken == 0 {
		t.Fatalf("admission verdict %+v", v)
	}
	gen1.kill(t)

	gen2, _ := startGeneration(t, cfg, dir, addr)
	defer gen2.kill(t)
	waitFor(t, "recovered stream parked", func() bool {
		return gen2.srv.Snapshot().Streams.Parked == 1
	})
	snap := gen2.srv.Snapshot()
	if snap.Streams.Recovered != 1 || snap.Streams.Admitted != 0 || snap.ReservedPeak != kit.hello.PeakRate {
		t.Fatalf("after recovery: recovered=%d admitted=%d reserved=%.0f, want 1/0/%.0f",
			snap.Streams.Recovered, snap.Streams.Admitted, snap.ReservedPeak, kit.hello.PeakRate)
	}

	conn2, _, v2 := kit.handshake(t, addr)
	conn2.Close()
	if !v2.IsAdmitted() || v2.ResumeToken != v.ResumeToken {
		t.Fatalf("retransmitted hello: %+v, want admitted to token %016x", v2, v.ResumeToken)
	}
	snap = gen2.srv.Snapshot()
	if snap.Streams.HelloDeduped != 1 || snap.Streams.Admitted != 0 || snap.ReservedPeak != kit.hello.PeakRate {
		t.Errorf("after the retransmitted hello: deduped=%d admitted=%d reserved=%.0f, want 1/0/%.0f",
			snap.Streams.HelloDeduped, snap.Streams.Admitted, snap.ReservedPeak, kit.hello.PeakRate)
	}
}

// TestConcurrentDuplicateHello: sixteen connections race the identical
// hello. Exactly one reservation is made; every verdict is an
// admission to that one stream or a busy retry; the reservation goes
// once the resume window lapses with no sender attached, and the nonce
// goes with it.
func TestConcurrentDuplicateHello(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	kit.hello.Nonce = 0xD00D
	srv, addr := startServer(t, Config{
		LinkRate: 20 * kit.hello.PeakRate, ReadTimeout: 5 * time.Second,
		ResumeWindow: 200 * time.Millisecond,
	})
	const dialers = 16
	verdicts := make([]transport.Verdict, dialers)
	errs := make([]error, dialers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			fw := transport.NewFrameWriter(conn)
			start.Wait()
			if err := fw.WriteHello(kit.hello); err != nil {
				errs[i] = err
				return
			}
			verdicts[i], errs[i] = transport.NewFrameReader(conn).ReadVerdictTimeout(10 * time.Second)
		}(i)
	}
	start.Done()
	wg.Wait()

	var token uint64
	for i, v := range verdicts {
		if errs[i] != nil {
			// The server closed this connection to expedite another
			// dialer's reattach: no verdict, nothing to check.
			continue
		}
		switch v.Code {
		case transport.Admitted:
			if token == 0 {
				token = v.ResumeToken
			}
			if v.ResumeToken == 0 || v.ResumeToken != token {
				t.Errorf("dialer %d admitted to token %016x, another to %016x", i, v.ResumeToken, token)
			}
		case transport.RejectedBusy:
		default:
			t.Errorf("dialer %d: verdict %+v, want admitted or busy", i, v)
		}
	}
	snap := srv.Snapshot()
	if snap.Streams.Admitted != 1 || snap.ReservedPeak != kit.hello.PeakRate {
		t.Fatalf("admitted=%d reserved=%.0f, want one reservation of %.0f",
			snap.Streams.Admitted, snap.ReservedPeak, kit.hello.PeakRate)
	}
	waitFor(t, "reservation released after the resume window", func() bool {
		return srv.Snapshot().ReservedPeak == 0
	})
	conn, _, v := kit.handshake(t, addr)
	conn.Close()
	if !v.IsAdmitted() || v.ResumeToken == token {
		t.Errorf("hello after release: %+v, want a fresh admission", v)
	}
	if got := srv.Snapshot().Streams.Admitted; got != 2 {
		t.Errorf("admitted %d after the released nonce returned, want 2", got)
	}
}
