package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mpegsmooth/internal/transport"
)

// streamRec is what the generator saw of one stream. Its fields are
// written by the stream's own goroutine (the connection wrappers run on
// it too) until the stream is finished, and read after that.
type streamRec struct {
	id       uint32
	measured bool // begun inside the measured window
	seq      *sequence
	flow     *flow // until finished
	clock    *genClock

	helloAt   time.Time // first byte written on the first connection
	verdictAt time.Time // first byte read back
	endAt     time.Time // Stream returned: completion acked, or failed
	resumes   int
	err       error

	// Set when the stream is finished.
	delivered bool      // every picture egressed byte-exact
	lastByte  time.Time // of the last picture, when delivered

	// Traced run only.
	writeBlocked time.Duration
	writes       int64
	dgconns      []*transport.DGConn
	packets      atomic.Int64 // datagrams emitted under the ARQ flows
}

// pass is one timed run of the generator against a running env.
type pass struct {
	e      *env
	nextID atomic.Uint32

	mu   sync.Mutex
	recs []*streamRec
	errs []string
	// Per-picture samples of the measured streams, folded in as each
	// stream finishes so no per-picture record outlives its stream.
	picture, delay timed
	slip           dist // traced run only

	// start is when load began; window..deadline is the measured part:
	// streams begun before window only warm the deployment up.
	start, window, end time.Time
	final              counters
	ackLagMax          uint64 // traced cluster runs: largest follower ack lag seen
	sinkWrites0        int64  // egress writes before the window
	usage0             syscall.Rusage
	usage1             syscall.Rusage
	mem0, mem1         runtime.MemStats
}

func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	if len(p.errs) < maxViolations {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// warmup is how long load runs before the measured window opens, so
// the window sees the deployment in steady state: pools and heap grown,
// journal segments open, the follower caught up.
const warmup = 2 * time.Second

// run drives the client slots closed-loop through the warm-up and the
// measured window, then waits for every stream to drain and checks the
// deployment came back to rest.
func (p *pass) run(seconds float64) {
	measure := time.Duration(seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), warmup+measure+90*time.Second)
	defer cancel()
	runtime.GC()
	p.start = time.Now()
	p.window = p.start.Add(warmup)
	deadline := p.window.Add(measure)
	p.picture = timed{start: p.window, w: tailWindow}
	p.delay = timed{start: p.window, w: tailWindow}
	if p.e.tracer != nil {
		p.e.tracer.from = p.e.tracer.ns(p.window)
	}
	if p.e.tracer != nil && p.e.primary != nil {
		stop, done := make(chan struct{}), make(chan struct{})
		go p.watchCluster(stop, done)
		defer func() { close(stop); <-done }()
	}
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			p.slot(ctx, s, deadline)
		}(s)
	}
	time.Sleep(time.Until(p.window))
	syscall.Getrusage(syscall.RUSAGE_SELF, &p.usage0)
	runtime.ReadMemStats(&p.mem0)
	p.sinkWrites0, _, _ = p.e.sink.snapshot()
	wg.Wait()
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	p.drain(dctx)
	p.end = time.Now()
	syscall.Getrusage(syscall.RUSAGE_SELF, &p.usage1)
	runtime.ReadMemStats(&p.mem1)
}

// slot runs back-to-back streams until the deadline, alternating its two
// payload sets and rotating through the workload's sequences.
func (p *pass) slot(ctx context.Context, s int, deadline time.Time) {
	e := p.e
	for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
		set := &e.sets[s][k%2]
		if set.rec != nil {
			ok := p.finish(ctx, set.rec)
			set.rec = nil
			if !ok {
				return
			}
		}
		seqIdx := (s + k) % len(e.seqs)
		if set.seq != seqIdx {
			set.fill(e.seqs, seqIdx, e.seed, s, k%2)
		}
		rec := &streamRec{id: p.nextID.Add(1), seq: e.seqs[seqIdx], clock: &genClock{t: e.tracer}, measured: !time.Now().Before(p.window)}
		for i, pl := range set.payloads {
			putStamp(pl[len(pl)-stampLen:], stamp{stream: rec.id, index: uint32(i)})
		}
		rec.flow = newFlow(rec.id, set.payloads, set.times)
		set.times, set.rec = rec.flow.lastByte, rec
		e.sink.add(rec.flow)
		p.stream(ctx, rec, set.payloads)
		p.mu.Lock()
		p.recs = append(p.recs, rec)
		p.mu.Unlock()
		if rec.err != nil {
			p.finish(ctx, rec)
			set.rec = nil
		}
	}
}

// finish waits for a stream's egress, records a failure if it never
// completes, and folds its per-picture samples into the pass. It
// reports whether the stream's egress completed.
func (p *pass) finish(ctx context.Context, rec *streamRec) bool {
	f := rec.flow
	ok := rec.err == nil
	if !ok {
		p.fail("stream %d (%s): %v", rec.id, rec.seq.tr.Name, rec.err)
	} else {
		select {
		case <-f.done:
		case <-ctx.Done():
			ok = false
		}
	}
	if !ok {
		// Its remaining pictures will not arrive: stop expecting them.
		p.e.sink.drop(f)
		if rec.err == nil {
			p.fail("stream %d: egress carried %d of %d pictures", rec.id, f.pic, len(f.payloads))
		}
	}
	rec.flow = nil
	n := len(f.payloads)
	rec.delivered = ok
	if !ok {
		return false
	}
	rec.lastByte = f.lastByte[n-1]
	if !rec.measured {
		return true
	}
	ts, tau, origin := p.e.w.timeScale, rec.seq.tr.Tau, rec.clock.origin
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, at := range f.lastByte[:n] {
		due := origin.Add(time.Duration(rec.seq.sched.Start[i] / ts * float64(time.Second)))
		p.picture.add(at, ms(at.Sub(due)))
		captured := origin.Add(time.Duration(float64(i) * tau / ts * float64(time.Second)))
		p.delay.add(at, at.Sub(captured).Seconds()*ts)
	}
	if p.e.tracer != nil {
		// Egress slip: picture i's last byte relative to picture 0's,
		// against the departures the server's own Session promises.
		obs0, dep0 := f.lastByte[0], rec.seq.depart[0]
		for i, at := range f.lastByte[:n] {
			promised := (rec.seq.depart[i] - dep0) / ts * 1e3
			p.slip = append(p.slip, ms(at.Sub(obs0))-promised)
		}
	}
	return true
}

// stream sends one stream through a ResumableSender, as the streamer
// CLI does.
func (p *pass) stream(ctx context.Context, rec *streamRec, payloads [][]byte) {
	e := p.e
	hello := rec.seq.hello
	hello.Nonce = nonce(e.seed, rec.id)
	rs := &transport.ResumableSender{
		Sender: transport.Sender{
			Chunk:        e.w.chunk,
			Clock:        rec.clock,
			TimeScale:    e.w.timeScale,
			WriteTimeout: 10 * time.Second,
		},
		Dial:        p.dialer(rec),
		Hello:       hello,
		Backoff:     transport.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond},
		MaxAttempts: 40,
		Seed:        int64(nonce(e.seed+1, rec.id) >> 1),
	}
	res, err := rs.StreamSchedule(ctx, rec.seq.sched, payloads)
	rec.endAt, rec.resumes, rec.err = time.Now(), res.Resumes, err
}

// nonce derives a stream's nonzero hello nonce from the seed.
func nonce(seed int64, id uint32) uint64 {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	binary.LittleEndian.PutUint32(b[8:], id)
	h := fnv.New64a()
	h.Write(b[:])
	return h.Sum64() | 1
}

func (p *pass) dialer(rec *streamRec) func(context.Context) (net.Conn, error) {
	e := p.e
	traced := e.tracer != nil
	if !e.w.datagram {
		return func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", e.addr)
			if err != nil {
				return nil, err
			}
			return &clientConn{Conn: c, rec: rec, traced: traced}, nil
		}
	}
	return func(ctx context.Context) (net.Conn, error) {
		raddr, err := net.ResolveUDPAddr("udp", e.addr)
		if err != nil {
			return nil, err
		}
		udp, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return nil, err
		}
		pc := e.cliNet.WrapConn(udp)
		if traced {
			pc = packetCounter{Conn: pc, n: &rec.packets}
		}
		dg := transport.NewDatagramClientConn(pc, transport.DatagramConfig{Seed: int64(nonce(e.seed+2, rec.id) >> 1)})
		rec.dgconns = append(rec.dgconns, dg)
		return &clientConn{Conn: dg, rec: rec, traced: traced}, nil
	}
}

// drain finishes every slot's last streams and waits for the
// deployment to come back to rest, recording every way it fails to.
func (p *pass) drain(ctx context.Context) {
	e := p.e
	for s := range e.sets {
		for k := range e.sets[s] {
			if rec := e.sets[s][k].rec; rec != nil {
				p.finish(ctx, rec)
				e.sets[s][k].rec = nil
			}
		}
	}
	srv := e.server()
	if srv == nil {
		p.fail("no serving primary after the run")
		return
	}
	want := int64(len(p.recs))
	if err := waitUntil(20*time.Second, func() bool {
		s := srv.Snapshot()
		return s.Streams.Active == 0 && s.Streams.Completed == want
	}); err != nil {
		s := srv.Snapshot()
		p.fail("server drain: %d active, %d completed of %d streams run", s.Streams.Active, s.Streams.Completed, want)
	}
	if err := waitUntil(5*time.Second, func() bool { return srv.Snapshot().ReservedPeak == 0 }); err != nil {
		p.fail("reservations leaked: %.0f bps still reserved after drain", srv.Snapshot().ReservedPeak)
	}
	if e.follow != nil {
		if err := waitUntil(10*time.Second, func() bool {
			return e.follow.Status().Replication.LagRecords == 0
		}); err != nil {
			p.fail("follower replication lag stuck at %d records", e.follow.Status().Replication.LagRecords)
		}
	}
	var sent int64
	for _, rec := range p.recs {
		if rec.err == nil {
			sent += rec.seq.bytes
		}
	}
	_, egressed, sinkErrs := e.sink.snapshot()
	for _, s := range sinkErrs {
		p.fail("egress: %s", s)
	}
	if egressed != sent {
		p.fail("egress carried %d payload bytes, generator sent %d", egressed, sent)
	}
	if bits := srv.Snapshot().EgressedBits; bits != 8*sent {
		p.fail("server counted %d egress bits, generator sent %d", bits, 8*sent)
	}
}
