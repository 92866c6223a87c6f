package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/transport"
)

// generation is one server lifetime in a kill-and-restart sequence: the
// server, the journal it recovers from and writes to, and the Serve
// goroutine's exit channel.
type generation struct {
	srv  *Server
	jrnl *journal.Journal
	done chan error
}

// startGeneration opens the journal directory and binds a server to
// addr ("" picks a fresh port). Each generation replays whatever the
// previous one made durable; the caller ends it with kill or shutdown.
func startGeneration(t testing.TB, cfg Config, dir, addr string) (*generation, string) {
	t.Helper()
	return startGenerationJournal(t, cfg, journal.Config{Dir: dir, FlushInterval: 5 * time.Millisecond}, addr)
}

// startGenerationJournal is startGeneration with the journal config
// under test control — the commit-window crash tests shape batching
// with it.
func startGenerationJournal(t testing.TB, cfg Config, jcfg journal.Config, addr string) (*generation, string) {
	t.Helper()
	j, err := journal.Open(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	if cfg.TimeScale == 0 {
		cfg.TimeScale = soakTimeScale
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	// The previous generation's Kill already closed its listener, but
	// give a slow kernel a beat to release the port.
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return &generation{srv: srv, jrnl: j, done: done}, ln.Addr().String()
}

// kill is the in-process SIGKILL: journal abandoned, connections
// dropped, nothing acked or drained.
func (g *generation) kill(t testing.TB) {
	t.Helper()
	g.srv.Kill()
	if err := <-g.done; err != nil {
		t.Fatalf("Serve after kill: %v", err)
	}
}

// shutdown drains the final generation gracefully and closes its
// journal.
func (g *generation) shutdown(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := g.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-g.done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// sendPictures writes payloads[from:to] as framed pictures.
func sendPictures(t testing.TB, fw *transport.FrameWriter, kit *clientKit, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := fw.WritePictureHeader(i, kit.tr.TypeOf(i), kit.payloads[i]); err != nil {
			t.Fatalf("picture %d header: %v", i, err)
		}
		if err := fw.WriteChunk(kit.payloads[i]); err != nil {
			t.Fatalf("picture %d payload: %v", i, err)
		}
	}
}

// TestCrashRecoveryResume: a stream is killed mid-flight with the
// server, and the restarted generation — rebuilt purely from the
// journal — answers the sender's resume with the durable watermark and
// prefix hash, accepts the replayed tail, and completes byte-exact with
// exactly one admission across both generations. The HMAC variant also
// proves the chained HMAC-SHA256 prefix state round-trips the journal:
// the recovered server continues the keyed chain mid-stream.
func TestCrashRecoveryResume(t *testing.T) {
	t.Run("fnv", func(t *testing.T) {
		runCrashRecoveryResume(t, transport.IntegrityFNV, nil)
	})
	t.Run("hmac", func(t *testing.T) {
		runCrashRecoveryResume(t, transport.IntegrityHMAC, []byte("crash-test-shared-key"))
	})
}

func runCrashRecoveryResume(t *testing.T, mode transport.IntegrityMode, key []byte) {
	kit := makeClient(t, testTrace(t, 54))
	wantSum, err := transport.PrefixSum(mode, key, kit.payloads, kit.tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     2 * kit.hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 20 * time.Second,
		Integrity:    mode,
		IntegrityKey: key,
	}
	gen1, addr := startGeneration(t, cfg, dir, "")

	hello := kit.hello
	hello.Nonce = 0xC0FFEE
	hello.Integrity = mode
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := transport.NewFrameWriter(conn)
	fr := transport.NewFrameReader(conn)
	if err := fw.WriteHello(hello); err != nil {
		t.Fatal(err)
	}
	v, err := fr.ReadVerdictTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsAdmitted() || v.ResumeToken == 0 {
		t.Fatalf("admission verdict %+v", v)
	}
	token := v.ResumeToken

	// Stream the head, then make sure every accepted picture's watermark
	// reached the journal's coalescing buffer before forcing it out —
	// the flush pins the recovery point at exactly `head`.
	const head = 9
	sendPictures(t, fw, kit, 0, head)
	waitFor(t, "head pictures journaled", func() bool {
		return gen1.jrnl.Stats().WatermarksCoalesced >= head
	})
	if err := gen1.jrnl.Flush(); err != nil {
		t.Fatal(err)
	}

	gen1.kill(t)
	gen2, _ := startGeneration(t, cfg, dir, addr)

	snap := gen2.srv.Snapshot()
	if snap.Streams.Recovered != 1 || snap.Streams.RecoveredTombstones != 0 {
		t.Fatalf("recovery counters %+v, want 1 stream, 0 tombstones", snap.Streams)
	}
	waitFor(t, "recovered stream parked", func() bool {
		return gen2.srv.Snapshot().Streams.Parked == 1
	})

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fw2 := transport.NewFrameWriter(conn2)
	fr2 := transport.NewFrameReader(conn2)
	if err := fw2.WriteResume(transport.StreamResume{Token: token}); err != nil {
		t.Fatal(err)
	}
	v2, err := fr2.ReadVerdictTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.IsAdmitted() {
		t.Fatalf("resume verdict %+v", v2)
	}
	if v2.NextIndex != head {
		t.Fatalf("recovered watermark %d, want %d", v2.NextIndex, head)
	}
	headSum, err := transport.PrefixSum(mode, key, kit.payloads, head)
	if err != nil {
		t.Fatal(err)
	}
	if v2.PrefixFNV != headSum {
		t.Fatalf("recovered prefix hash %016x, want %016x", v2.PrefixFNV, headSum)
	}

	sendPictures(t, fw2, kit, head, kit.tr.Len())
	if err := fw2.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr2.ReadMessageTimeout(10 * time.Second); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("completion ack: %v", err)
	}
	waitFor(t, "completion", func() bool {
		s := gen2.srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0
	})

	g1, g2 := gen1.srv.Snapshot(), gen2.srv.Snapshot()
	if g1.Streams.Admitted != 1 || g2.Streams.Admitted != 0 {
		t.Errorf("admissions gen1=%d gen2=%d, want exactly one total (recovery re-admitted)",
			g1.Streams.Admitted, g2.Streams.Admitted)
	}
	if g2.Faults.Resumed < 1 {
		t.Errorf("post-restart resume not counted: %+v", g2.Faults)
	}
	if g2.ReservedPeak != 0 {
		t.Errorf("reservation leaked across the crash: %.0f bps", g2.ReservedPeak)
	}
	fin := gen2.srv.FinishedStreams()
	if len(fin) != 1 {
		t.Fatalf("%d finished streams in gen2", len(fin))
	}
	if fin[0].PayloadFNV != wantSum {
		t.Errorf("payload hash %016x, want %016x — bytes lost across the crash",
			fin[0].PayloadFNV, wantSum)
	}
	gen2.shutdown(t)

	// The completion survived gen2 too: a third generation recovers the
	// tombstone, not the stream.
	j, err := journal.Open(journal.Config{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.State()
	if len(st.Streams) != 0 || len(st.Tombstones) != 1 {
		t.Errorf("final journal state: %d streams, %d tombstones, want 0/1",
			len(st.Streams), len(st.Tombstones))
	}
}

// TestCrashRecoveryAlreadyComplete: the completion is journaled before
// the ack leaves, so a sender that finished just before the crash and
// resumes against the restarted server gets a verifiable
// AlreadyComplete verdict from the recovered tombstone — never a
// rejection, never a second session.
func TestCrashRecoveryAlreadyComplete(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	wantFNV := payloadFNV(kit.payloads)
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     2 * kit.hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 20 * time.Second,
	}
	gen1, addr := startGeneration(t, cfg, dir, "")

	hello := kit.hello
	hello.Nonce = 0xF00D
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := transport.NewFrameWriter(conn)
	fr := transport.NewFrameReader(conn)
	if err := fw.WriteHello(hello); err != nil {
		t.Fatal(err)
	}
	v, err := fr.ReadVerdictTimeout(10 * time.Second)
	if err != nil || !v.IsAdmitted() {
		t.Fatalf("admission: %+v, %v", v, err)
	}
	sendPictures(t, fw, kit, 0, kit.tr.Len())
	if err := fw.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	// The ack confirms the completion record was fsynced (it is written
	// journal-first); from the sender's view this ack is now "lost".
	if _, err := fr.ReadMessageTimeout(10 * time.Second); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("completion ack: %v", err)
	}
	waitFor(t, "completion", func() bool { return gen1.srv.Snapshot().Streams.Completed == 1 })

	gen1.kill(t)
	gen2, _ := startGeneration(t, cfg, dir, addr)
	defer gen2.shutdown(t)

	snap := gen2.srv.Snapshot()
	if snap.Streams.Recovered != 0 || snap.Streams.RecoveredTombstones != 1 {
		t.Fatalf("recovery counters %+v, want 0 streams, 1 tombstone", snap.Streams)
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := transport.NewFrameWriter(conn2).WriteResume(transport.StreamResume{Token: v.ResumeToken}); err != nil {
		t.Fatal(err)
	}
	v2, err := transport.NewFrameReader(conn2).ReadVerdictTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Code != transport.AlreadyComplete {
		t.Fatalf("post-restart resume verdict %+v, want already-complete", v2)
	}
	if v2.NextIndex != kit.tr.Len() || v2.PrefixFNV != wantFNV {
		t.Fatalf("tombstone verdict next=%d fnv=%016x, want %d/%016x",
			v2.NextIndex, v2.PrefixFNV, kit.tr.Len(), wantFNV)
	}

	g1, g2 := gen1.srv.Snapshot(), gen2.srv.Snapshot()
	if g1.Streams.Admitted != 1 || g2.Streams.Admitted != 0 {
		t.Errorf("admissions gen1=%d gen2=%d, want exactly one total",
			g1.Streams.Admitted, g2.Streams.Admitted)
	}
	if g2.Streams.AlreadyComplete != 1 {
		t.Errorf("already-complete answers %d, want 1", g2.Streams.AlreadyComplete)
	}
	if g2.ReservedPeak != 0 {
		t.Errorf("tombstone recovery reserved capacity: %.0f bps", g2.ReservedPeak)
	}
}

// TestCrashKillInsideCommitWindow: the server is killed while a
// group-commit window is still open with every client's admission
// record queued and unfsynced. The durability ordering demands that no
// admission verdict escaped (release happens only after the batch
// fsync), so the kill must leave zero acknowledged-then-forgotten
// clients: the next generation recovers nothing, every sender retries
// its identical hello, and each completes with exactly one admission in
// the new generation — byte-exact.
func TestCrashKillInsideCommitWindow(t *testing.T) {
	for _, seed := range crashSoakSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runKillInsideCommitWindow(t, seed)
		})
	}
}

func runKillInsideCommitWindow(t *testing.T, seed int64) {
	const clients = 4
	kit := makeClient(t, testTrace(t, 27))
	wantFNV := payloadFNV(kit.payloads)
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     float64(clients+1) * kit.hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 20 * time.Second,
	}
	// A window long enough that the kill always lands inside it, and a
	// byte threshold no admission burst can reach: only the window timer
	// (or the kill) ends the batch.
	gen1, addr := startGenerationJournal(t, cfg, journal.Config{
		Dir:           dir,
		FlushInterval: 5 * time.Millisecond,
		CommitWindow:  30 * time.Second,
		CommitBytes:   1 << 30,
	}, "")

	nonce := func(i int) uint64 { return uint64(seed)<<32 | uint64(0xAD0+i) }
	type outcome struct {
		v   transport.Verdict
		err error
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := kit.hello
		hello.Nonce = nonce(i)
		if err := transport.NewFrameWriter(conn).WriteHello(hello); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			v, err := transport.NewFrameReader(conn).ReadVerdictTimeout(15 * time.Second)
			outcomes[i] = outcome{v: v, err: err}
		}(i, conn)
	}

	// Every admission is now parked on the open batch, its fsync pending.
	waitFor(t, "admissions queued in the open commit window", func() bool {
		return gen1.jrnl.Stats().CommitPending >= clients
	})
	gen1.kill(t)
	wg.Wait()

	// The fsync never happened, so no verdict may have been released: an
	// Admitted verdict here is an acknowledged admission the journal
	// forgot — exactly the ordering bug this test pins.
	for i, o := range outcomes {
		if o.err == nil && o.v.IsAdmitted() {
			t.Fatalf("client %d holds an admission verdict whose record was never fsynced (verdict %+v)", i, o.v)
		}
	}

	gen2, _ := startGeneration(t, cfg, dir, addr)
	defer gen2.shutdown(t)
	snap := gen2.srv.Snapshot()
	if snap.Streams.Recovered != 0 || snap.Streams.RecoveredTombstones != 0 {
		t.Fatalf("replay after kill-in-window recovered %d streams, %d tombstones; want a clean slate",
			snap.Streams.Recovered, snap.Streams.RecoveredTombstones)
	}

	// Unacknowledged senders retry the identical hello and complete.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errs := make([]error, clients)
	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			ck := *kit
			ck.hello.Nonce = nonce(i)
			v, err := ck.stream(ctx, addr)
			if err == nil && !v.IsAdmitted() {
				err = fmt.Errorf("retried hello got verdict %+v", v)
			}
			errs[i] = err
		}(i)
	}
	cwg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d retry: %v", i, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	waitFor(t, "all retried clients complete", func() bool {
		s := gen2.srv.Snapshot()
		return s.Streams.Completed == clients && s.Streams.Active == 0
	})

	g2 := gen2.srv.Snapshot()
	if g2.Streams.Admitted != clients {
		t.Errorf("gen2 admitted %d sessions for %d clients, want exactly one each",
			g2.Streams.Admitted, clients)
	}
	if g2.ReservedPeak != 0 {
		t.Errorf("reservation leaked: %.0f bps", g2.ReservedPeak)
	}
	for _, fin := range gen2.srv.FinishedStreams() {
		if fin.PayloadFNV != wantFNV {
			t.Errorf("stream %d payload hash %016x, want %016x", fin.ID, fin.PayloadFNV, wantFNV)
		}
	}
}

// crashSoakSeeds are the fixed seeds the kill-and-restart soak replays.
var crashSoakSeeds = []int64{1, 2, 3}

// TestCrashRestartSoak is the kill-and-restart chaos soak: several
// resumable clients stream while the server is repeatedly killed
// mid-stream (journal abandoned, connections dropped) and restarted
// from the journal on the same address. Every client must finish —
// resuming across server generations with byte-exact prefix
// verification at every handshake — the admission count summed across
// generations must be exactly one per client, and no reservation or
// journaled stream may outlive the run.
func TestCrashRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak skipped in -short mode")
	}
	for _, seed := range crashSoakSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashSoak(t, seed)
		})
	}
}

func runCrashSoak(t *testing.T, seed int64) {
	const (
		clients = 5
		kills   = 3
		// crashTimeScale stretches the schedule (relative to the other
		// soaks) so kills land mid-stream rather than after the fact.
		crashTimeScale = 25
	)
	kit := makeClient(t, testTrace(t, 240))
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     float64(clients+1) * kit.hello.PeakRate,
		ReadTimeout:  2 * time.Second,
		ResumeWindow: 30 * time.Second,
		TimeScale:    crashTimeScale,
	}
	gen, addr := startGeneration(t, cfg, dir, "")
	gens := []*generation{gen}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		doneClients int
		resumes     int
		already     int
		failures    []error
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs := resumableClient(kit, addr, seed*100+int64(i)+1)
			rs.Sender.TimeScale = crashTimeScale
			rs.MaxAttempts = 60
			res, err := rs.StreamSchedule(ctx, kit.sched, kit.payloads)
			mu.Lock()
			defer mu.Unlock()
			doneClients++
			resumes += res.Resumes
			if res.AlreadyComplete {
				already++
			}
			if err != nil {
				failures = append(failures, fmt.Errorf("client %d: %w", i, err))
			}
		}(i)
	}
	allDone := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return doneClients == clients
	}
	// Total accepted pictures across live and completed streams — the
	// soak's progress clock for choosing kill instants.
	progress := func() int {
		s := gen.srv.Snapshot()
		total := int(s.Streams.Completed) * kit.tr.Len()
		for _, ss := range s.PerStream {
			total += ss.Pictures
		}
		return total
	}

	// The first kill waits until every client holds a delivered verdict
	// (a picture accepted implies the admission was journaled and its
	// verdict received), so a kill can never race an in-flight admission
	// fsync and break the one-admission-per-client ledger.
	waitFor(t, "all clients underway", func() bool {
		s := gen.srv.Snapshot()
		if s.Streams.Admitted != clients || len(s.PerStream) != clients {
			return false
		}
		for _, ss := range s.PerStream {
			if ss.Pictures < 1 {
				return false
			}
		}
		return true
	})
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < kills && !allDone(); k++ {
		target := progress() + 10 + rng.Intn(40)
		waitFor(t, "progress before kill", func() bool {
			return allDone() || progress() >= target
		})
		if allDone() {
			break
		}
		gen.kill(t)
		gen, _ = startGeneration(t, cfg, dir, addr)
		gens = append(gens, gen)
	}
	wg.Wait()
	for _, err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if len(gens) < 2 {
		t.Fatal("no kill landed mid-stream; soak proved nothing")
	}
	waitFor(t, "final drain", func() bool {
		s := gen.srv.Snapshot()
		return s.Streams.Active == 0 && s.Streams.Parked == 0
	})

	final := gen.srv.Snapshot()
	if final.ReservedPeak != 0 || final.AvailablePeak != final.CapacityBPS {
		t.Errorf("reservations leaked across %d generations: reserved %v, available %v, capacity %v",
			len(gens), final.ReservedPeak, final.AvailablePeak, final.CapacityBPS)
	}
	var admittedTotal, recoveredTotal, resumedTotal, completedTotal int64
	for _, g := range gens {
		s := g.srv.Snapshot()
		admittedTotal += s.Streams.Admitted
		recoveredTotal += s.Streams.Recovered
		resumedTotal += s.Faults.Resumed
		completedTotal += s.Streams.Completed
	}
	if admittedTotal != clients {
		t.Errorf("admitted %d sessions across %d generations for %d clients — crash double-admitted",
			admittedTotal, len(gens), clients)
	}
	if recoveredTotal < 1 {
		t.Errorf("no stream recovered from the journal across %d restarts", len(gens)-1)
	}
	if resumedTotal < 1 || resumes < 1 {
		t.Errorf("no resume observed (server %d, clients %d)", resumedTotal, resumes)
	}
	// Every client succeeded; each success was either a counted server
	// completion or an AlreadyComplete tombstone answer.
	if completedTotal+int64(already) < clients {
		t.Errorf("completions %d + already-complete %d < %d clients", completedTotal, already, clients)
	}

	// Durable ledger agrees: with every client finished, no journaled
	// stream (reservation) survives the run.
	gen.shutdown(t)
	j, err := journal.Open(journal.Config{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := len(j.State().Streams); n != 0 {
		t.Errorf("%d streams still journaled after every client finished — durable reservation leak", n)
	}
}

// TestCrashRecoveredStreamResumesAfterStall: a journal-recovered stream
// resumes, then its connection goes half-open (stalled, never closed).
// The sender's next resume must be served within its busy-retry budget
// (about 5 s at the default backoff), not after the 30 s read timeout:
// the first attempt closes the stalled connection so the stream parks,
// and a retry resumes it at the recovered watermark.
func TestCrashRecoveredStreamResumesAfterStall(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	dir := t.TempDir()
	cfg := Config{LinkRate: 4 * kit.hello.PeakRate, ReadTimeout: 30 * time.Second, ResumeWindow: 20 * time.Second}
	gen1, addr := startGeneration(t, cfg, dir, "")
	kit.hello.Nonce = 0x57A11
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
	resume := func() transport.Verdict {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := transport.NewFrameWriter(c).WriteResume(transport.StreamResume{Token: v.ResumeToken}); err != nil {
			t.Fatal(err)
		}
		rv, err := transport.NewFrameReader(c).ReadVerdictTimeout(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return rv
	}
	// The first resume is adopted; its connection then stalls.
	if rv := resume(); !rv.IsAdmitted() || rv.NextIndex != 0 {
		t.Fatalf("first resume: %+v", rv)
	}
	waitFor(t, "resumed connection adopted", func() bool {
		return gen2.srv.Snapshot().Streams.Parked == 0
	})

	start := time.Now()
	const budget = 3 * time.Second
	for {
		rv := resume()
		if rv.IsAdmitted() {
			if rv.ResumeToken != v.ResumeToken || rv.NextIndex != 0 {
				t.Fatalf("second resume: %+v", rv)
			}
			break
		}
		if rv.Code != transport.RejectedBusy {
			t.Fatalf("second resume: %+v, want admitted or busy", rv)
		}
		if time.Since(start) > budget {
			t.Fatalf("stalled connection still held the stream after %v", budget)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := gen2.srv.Snapshot().Streams.Admitted; got != 0 {
		t.Errorf("admitted %d, want 0: the recovered stream holds the only reservation", got)
	}
}
