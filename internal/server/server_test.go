package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/transport"
)

// soakTimeScale compresses schedule time in every test so multi-second
// schedules replay in milliseconds.
const soakTimeScale = 200

func testTrace(t testing.TB, pictures int) *trace.Trace {
	t.Helper()
	tr, err := trace.Driving1(pictures, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// clientKit is everything a test client needs to stream one trace.
type clientKit struct {
	tr       *trace.Trace
	cfg      core.Config
	sched    *core.Schedule
	payloads [][]byte
	hello    transport.StreamHello
}

func makeClient(t testing.TB, tr *trace.Trace) *clientKit {
	t.Helper()
	cfg := core.Config{K: 1, H: tr.GOP.N, D: 0.2}
	sched, err := core.Smooth(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	payloads := make([][]byte, tr.Len())
	for i, s := range tr.Sizes {
		payloads[i] = make([]byte, int((s+7)/8))
		rng.Read(payloads[i])
	}
	return &clientKit{
		tr: tr, cfg: cfg, sched: sched, payloads: payloads,
		hello: transport.StreamHello{
			Tau: tr.Tau, GOP: tr.GOP, K: cfg.K, D: cfg.D,
			Pictures: tr.Len(), PeakRate: sched.PeakRate(),
		},
	}
}

// stream dials, declares, and — when admitted — paces the whole trace.
func (c *clientKit) stream(ctx context.Context, addr string) (transport.Verdict, error) {
	return c.streamWith(ctx, addr, transport.Sender{TimeScale: soakTimeScale})
}

// streamWith is stream with an explicit sender configuration; the
// benchmarks collapse client-side pacing entirely (TimeScale 1e6,
// picture-sized chunks) so they time the server machinery, not the
// schedule clock or the load generator's syscall count.
func (c *clientKit) streamWith(ctx context.Context, addr string, sender transport.Sender) (transport.Verdict, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return transport.Verdict{}, err
	}
	defer conn.Close()
	fw := transport.NewFrameWriter(conn)
	if err := fw.WriteHello(c.hello); err != nil {
		return transport.Verdict{}, err
	}
	fr := transport.NewFrameReader(conn)
	v, err := fr.ReadVerdict()
	if err != nil || !v.IsAdmitted() {
		return v, err
	}
	if err := sender.Send(ctx, fw, c.sched, c.payloads); err != nil {
		return v, err
	}
	// Wait for the completion ack so the server's final write never races
	// our close — with a resume window configured, a reset ack write
	// would otherwise park the finished stream for the whole window.
	fr.ReadMessageTimeout(10 * time.Second)
	return v, nil
}

// handshake dials and declares, returning the open connection with its
// framers for tests that hold sessions without streaming.
func (c *clientKit) handshake(t testing.TB, addr string) (net.Conn, *transport.FrameWriter, transport.Verdict) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fw := transport.NewFrameWriter(conn)
	if err := fw.WriteHello(c.hello); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	v, err := transport.NewFrameReader(conn).ReadVerdict()
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn, fw, v
}

func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.TimeScale == 0 {
		cfg.TimeScale = soakTimeScale
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSingleStreamEndToEnd(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	srv, addr := startServer(t, Config{LinkRate: 2 * kit.hello.PeakRate})

	v, err := kit.stream(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsAdmitted() {
		t.Fatalf("stream rejected: %+v", v)
	}
	waitFor(t, "stream completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })

	snap := srv.Snapshot()
	if snap.Streams.Admitted != 1 || snap.Streams.Failed != 0 || snap.Streams.Active != 0 {
		t.Fatalf("counters %+v", snap.Streams)
	}
	var totalBits int64
	for _, p := range kit.payloads {
		totalBits += int64(len(p)) * 8
	}
	if snap.EgressedBits != totalBits {
		t.Fatalf("egressed %d bits, want %d", snap.EgressedBits, totalBits)
	}
	fin := srv.FinishedStreams()
	if len(fin) != 1 {
		t.Fatalf("%d finished snapshots", len(fin))
	}
	ss := fin[0]
	if ss.Pictures != kit.tr.Len() || ss.Decisions != kit.tr.Len() {
		t.Fatalf("pictures %d decisions %d, want %d", ss.Pictures, ss.Decisions, kit.tr.Len())
	}
	if ss.MaxDelay > ss.DelayBound || ss.DelayHeadroom < 0 {
		t.Fatalf("delay bound broken: max %.4f bound %.4f", ss.MaxDelay, ss.DelayBound)
	}
	if ss.SessionPeak <= 0 || ss.PeakViolations != 0 || ss.OutOfBand != 0 {
		t.Fatalf("stream snapshot %+v", ss)
	}
	// The server re-smooths from byte-rounded sizes, so its peak may sit
	// a whisker above the client's bit-exact declaration — but no more.
	if ss.SessionPeak > ss.DeclaredPeak*1.01 {
		t.Fatalf("session peak %.0f far above declared %.0f", ss.SessionPeak, ss.DeclaredPeak)
	}
}

func TestAdmissionRejectsOverloadAtAdmission(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	// Capacity for exactly two concurrent streams.
	_, addr := startServer(t, Config{LinkRate: 2.5 * kit.hello.PeakRate})

	// Two sessions declare and then hold the link without finishing.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		conn, _, v := kit.handshake(t, addr)
		defer conn.Close()
		if !v.IsAdmitted() {
			t.Fatalf("stream %d: %+v", i, v)
		}
		held = append(held, conn)
	}
	// The third declaration must be rejected at admission time.
	conn, _, v := kit.handshake(t, addr)
	defer conn.Close()
	if v.Code != transport.RejectedCapacity {
		t.Fatalf("verdict %+v, want rejected-capacity", v)
	}
	if v.Available >= kit.hello.PeakRate {
		t.Fatalf("rejection reports %.0f available, enough for the declared %.0f",
			v.Available, kit.hello.PeakRate)
	}
	for _, c := range held {
		c.Close()
	}
}

func TestMalformedFirstMessageIsRejected(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	srv, addr := startServer(t, Config{LinkRate: 1e7})

	// A legacy sender that skips the hello gets a malformed verdict.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.NewFrameWriter(conn).WriteRate(transport.RateNotification{Index: 0, Rate: 1e6}); err != nil {
		t.Fatal(err)
	}
	v, err := transport.NewFrameReader(conn).ReadVerdict()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != transport.RejectedMalformed {
		t.Fatalf("verdict %+v, want rejected-malformed", v)
	}
	waitFor(t, "rejection counted", func() bool {
		return srv.Snapshot().Streams.RejectedMalformed == 1
	})
	// An unsatisfiable smoothing config (D < (K+1)τ) is caught at the
	// hello too, before any capacity is reserved.
	bad := *kit
	bad.hello.D = bad.hello.Tau / 2
	conn2, _, v2 := bad.handshake(t, addr)
	defer conn2.Close()
	if v2.Code != transport.RejectedMalformed {
		t.Fatalf("verdict %+v, want rejected-malformed", v2)
	}
	if got := srv.Snapshot().ReservedPeak; got != 0 {
		t.Fatalf("malformed hellos reserved %.0f bps", got)
	}
}

// TestIntegrityModeMismatchRejected: an HMAC server turns away a
// default-FNV hello at admission — before reserving capacity — and a
// plain-FNV server likewise refuses an HMAC hello, so a sender can
// never stream under a prefix-hash regime the server won't verify.
func TestIntegrityModeMismatchRejected(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	srv, addr := startServer(t, Config{
		LinkRate:     1e7,
		Integrity:    transport.IntegrityHMAC,
		IntegrityKey: []byte("server-side-secret"),
	})

	// kit.hello is zero-valued Integrity == IntegrityFNV.
	conn, _, v := kit.handshake(t, addr)
	defer conn.Close()
	if v.Code != transport.RejectedMalformed {
		t.Fatalf("FNV hello against HMAC server: verdict %+v, want rejected-malformed", v)
	}
	if got := srv.Snapshot().ReservedPeak; got != 0 {
		t.Fatalf("mismatched hello reserved %.0f bps", got)
	}

	// The right mode is admitted on the same server.
	ok := *kit
	ok.hello.Integrity = transport.IntegrityHMAC
	conn2, _, v2 := ok.handshake(t, addr)
	defer conn2.Close()
	if !v2.IsAdmitted() {
		t.Fatalf("HMAC hello against HMAC server: verdict %+v", v2)
	}

	// And the mirror image: an FNV server refuses an HMAC hello.
	_, addrFNV := startServer(t, Config{LinkRate: 1e7})
	conn3, _, v3 := ok.handshake(t, addrFNV)
	defer conn3.Close()
	if v3.Code != transport.RejectedMalformed {
		t.Fatalf("HMAC hello against FNV server: verdict %+v, want rejected-malformed", v3)
	}
}

func TestServerReadTimeoutCutsStalledStream(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	srv, addr := startServer(t, Config{LinkRate: 1e7, ReadTimeout: 100 * time.Millisecond})

	conn, _, v := kit.handshake(t, addr)
	defer conn.Close()
	if !v.IsAdmitted() {
		t.Fatalf("%+v", v)
	}
	// Stall: send nothing further. The read deadline must fail the
	// stream and release its reservation.
	waitFor(t, "stalled stream cut off", func() bool {
		s := srv.Snapshot()
		return s.Streams.Failed == 1 && s.Streams.Active == 0
	})
	if got := srv.Snapshot().AvailablePeak; got != 1e7 {
		t.Fatalf("reservation not released: %.0f available", got)
	}
}

func TestOpsEndpoint(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	srv, addr := startServer(t, Config{LinkRate: 1.5 * kit.hello.PeakRate})
	ops := httptest.NewServer(srv.OpsHandler())
	defer ops.Close()

	// One rejected stream (declares more than the whole link)...
	big := *kit
	big.hello.PeakRate = 10 * srv.Snapshot().CapacityBPS
	conn, _, v := big.handshake(t, addr)
	if v.Code != transport.RejectedCapacity {
		t.Fatalf("verdict %+v", v)
	}
	conn.Close()
	// ...and one completed stream.
	if v, err := kit.stream(t.Context(), addr); err != nil || !v.IsAdmitted() {
		t.Fatalf("%+v, %v", v, err)
	}
	waitFor(t, "completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ops.Client().Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/livez"); code != 200 || body != "ok\n" {
		t.Fatalf("livez %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz %d %q", code, body)
	}
	code, body := get("/stats")
	if code != 200 {
		t.Fatalf("stats %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, body)
	}
	if snap.Streams.Admitted != 1 || snap.Streams.Rejected != 1 ||
		snap.Streams.RejectedCapacity != 1 || snap.Streams.Completed != 1 {
		t.Fatalf("stats counters %+v", snap.Streams)
	}
	if snap.CapacityBPS != 1.5*kit.hello.PeakRate || snap.EgressedBits == 0 {
		t.Fatalf("stats capacity %.0f egressed %d", snap.CapacityBPS, snap.EgressedBits)
	}
	if snap.DelayViolations != 0 || snap.WorstDelayHeadroomS <= 0 {
		t.Fatalf("delay fields: violations %d headroom %v", snap.DelayViolations, snap.WorstDelayHeadroomS)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "smoothd") {
		t.Fatalf("expvar %d: smoothd var missing\n%s", code, body)
	}
}

// TestSoakConcurrentClients is the acceptance soak: 28 identical
// clients hit a link provisioned for exactly 20 of them. All 28 open
// their sessions before any admitted client sends, so no early
// finisher frees capacity for a late hello: exactly 20 are admitted,
// the 8 others are rejected at admission — never dropped mid-stream —
// and the 20 then stream concurrently, each completing within its delay
// bound.
func TestSoakConcurrentClients(t *testing.T) {
	const admitN, totalN = 20, 28
	kit := makeClient(t, testTrace(t, 36))
	srv, addr := startServer(t, Config{LinkRate: float64(admitN) * kit.hello.PeakRate})

	type session struct {
		conn net.Conn
		fw   *transport.FrameWriter
	}
	var (
		sessions []session
		rejected int
	)
	for i := 0; i < totalN; i++ {
		conn, fw, v := kit.handshake(t, addr)
		switch {
		case v.IsAdmitted():
			defer conn.Close()
			sessions = append(sessions, session{conn, fw})
		case v.Code == transport.RejectedCapacity:
			rejected++
			conn.Close()
		default:
			conn.Close()
			t.Fatalf("client %d: verdict %+v", i, v)
		}
	}
	admitted := len(sessions)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []error
	)
	for i, ss := range sessions {
		wg.Add(1)
		go func(i int, ss session) {
			defer wg.Done()
			sender := transport.Sender{TimeScale: soakTimeScale}
			err := sender.Send(t.Context(), ss.fw, kit.sched, kit.payloads)
			if err == nil {
				// Wait for the completion ack and the server's close so
				// its final write never races ours.
				ss.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				_, err = io.Copy(io.Discard, ss.conn)
			}
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Errorf("client %d: %w", i, err))
				mu.Unlock()
			}
		}(i, ss)
	}
	wg.Wait()
	for _, err := range failures {
		t.Error(err)
	}
	if admitted != admitN || rejected != totalN-admitN {
		t.Fatalf("admitted %d rejected %d, want %d/%d", admitted, rejected, admitN, totalN-admitN)
	}
	waitFor(t, "all streams drained", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == admitN && s.Streams.Active == 0
	})

	snap := srv.Snapshot()
	if snap.Streams.Failed != 0 {
		t.Fatalf("%d streams failed mid-stream", snap.Streams.Failed)
	}
	if snap.Streams.Admitted != admitN || snap.Streams.RejectedCapacity != int64(totalN-admitN) {
		t.Fatalf("server counters %+v", snap.Streams)
	}
	// Lossless: every admitted picture crossed the link.
	var streamBits int64
	for _, p := range kit.payloads {
		streamBits += int64(len(p)) * 8
	}
	if snap.EgressedBits != int64(admitN)*streamBits {
		t.Fatalf("egressed %d bits, want %d", snap.EgressedBits, int64(admitN)*streamBits)
	}
	// Every admitted stream met its delay bound D.
	if snap.DelayViolations != 0 || snap.WorstDelayHeadroomS < 0 {
		t.Fatalf("delay bound: %d violations, worst headroom %v",
			snap.DelayViolations, snap.WorstDelayHeadroomS)
	}
	fin := srv.FinishedStreams()
	if len(fin) != admitN {
		t.Fatalf("%d finished snapshots", len(fin))
	}
	for _, ss := range fin {
		if ss.Pictures != kit.tr.Len() || ss.DelayHeadroom < 0 {
			t.Fatalf("stream %d: pictures %d, max delay %v > bound %v",
				ss.ID, ss.Pictures, ss.MaxDelay, ss.DelayBound)
		}
	}
	// The reservation ledger is back to empty.
	if snap.ReservedPeak != 0 || snap.AvailablePeak != snap.CapacityBPS {
		t.Fatalf("reservations leaked: %.0f reserved", snap.ReservedPeak)
	}
}

func TestGracefulDrainLetsActiveStreamsFinish(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	srv, err := New(Config{LinkRate: 1e7, TimeScale: soakTimeScale})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	clientDone := make(chan error, 1)
	go func() {
		_, err := kit.stream(context.Background(), ln.Addr().String())
		clientDone <- err
	}()
	waitFor(t, "stream active", func() bool { return srv.Snapshot().Streams.Active == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := <-clientDone; err != nil {
		t.Fatalf("client during drain: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Streams.Completed != 1 || snap.Streams.Failed != 0 {
		t.Fatalf("drain outcome %+v", snap.Streams)
	}
	// After shutdown, new sessions are refused outright.
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

func TestShutdownForceCancelsStalledStreams(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	srv, err := New(Config{LinkRate: 1e7, TimeScale: soakTimeScale})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, _, v := kit.handshake(t, ln.Addr().String())
	defer conn.Close()
	if !v.IsAdmitted() {
		t.Fatalf("%+v", v)
	}
	// The stream stalls; a bounded drain must cut it loose.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain returned %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Streams.Failed != 1 || snap.Streams.Active != 0 {
		t.Fatalf("forced drain outcome %+v", snap.Streams)
	}
}
