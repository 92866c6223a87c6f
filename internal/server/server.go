// Package server implements smoothd: a multi-stream smoothing daemon
// that multiplexes many concurrent live picture streams onto one shared
// egress link of fixed capacity.
//
// The paper's argument for lossless smoothing is statistical
// multiplexing (Section 5): many smoothed VBR streams share a
// finite-buffer link far better than unsmoothed ones. smoothd turns
// that into a serving system. Each sender opens a session with a
// StreamHello declaring its encoding parameters and the peak rate of
// its smoothed schedule; a peak-rate admission controller
// (netsim.Admission) reserves that peak against the link capacity and
// rejects streams that would overload it — at admission time, before
// their first picture, never by dropping cells mid-stream. Every
// admitted stream is driven through its own core.Session (one
// goroutine, per the Session contract) with the server's configured
// rate-selection policy, and its pictures are paced onto the shared
// link at the decided rates. Because every admitted stream transmits at
// or below its reserved peak, the aggregate egress never exceeds the
// link capacity: the multiplexing stays lossless by construction.
//
// The transport under the server is chaos-hardened: frames are CRC- and
// sequence-checked, so corruption and loss are detected rather than
// decoded, and an admitted stream that drops mid-session can reconnect
// with its resume token inside the configured ResumeWindow. The server
// parks the disconnected stream — Session, queue, and admission
// reservation intact — and on resume tells the sender exactly which
// picture to replay from, deduplicating anything it already accepted.
// A flaky link therefore costs delay, never pictures.
package server

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/netsim"
	"mpegsmooth/internal/transport"
)

// egressChunk is the pacing granularity in bytes: streams interleave on
// the shared link at this grain.
const egressChunk = 4096

// CommitGate delays durable commits until a replication quorum holds
// them. WaitCommitted blocks until journal publish sequence seq is
// acknowledged by enough replicas or the gate degrades to local-only
// durability (both nil); a non-nil error is terminal — the verdict must
// not be released, and the caller rolls the commit back.
type CommitGate interface {
	WaitCommitted(ctx context.Context, seq uint64) error
}

// delayTolerance absorbs float rounding when a schedule's maximum
// per-picture delay is compared against its bound D.
const delayTolerance = 1e-9

// Config parameterizes a smoothd server.
type Config struct {
	// LinkRate is the shared egress link capacity in bits/second; the
	// admission controller reserves declared stream peaks against it.
	LinkRate float64
	// Policy selects rates for every stream's smoothing session; nil
	// means core.BasicPolicy (fewest rate changes).
	Policy core.Policy
	// H is the lookahead interval in pictures; 0 resolves to each
	// stream's own pattern length N (the paper's usual choice).
	H int
	// QueueLen bounds each stream's decision queue between ingest and
	// egress (default 32). A full queue blocks ingest, which stops
	// reading the connection — backpressure propagates to the sender
	// through TCP flow control rather than growing memory.
	QueueLen int
	// MaxStreams caps concurrently active streams (0 = no cap beyond
	// link capacity).
	MaxStreams int
	// ReadTimeout bounds the wait for each inbound message so a stalled
	// sender cannot wedge its stream forever (default 30s).
	ReadTimeout time.Duration
	// WriteTimeout bounds each outbound write — verdicts and, when the
	// egress sink supports write deadlines, shared-link writes (default:
	// ReadTimeout).
	WriteTimeout time.Duration
	// ResumeWindow is how long a disconnected admitted stream is parked
	// (reservation held, Session intact) awaiting a StreamResume with
	// its token. Zero disables resumption: a connection fault fails the
	// stream immediately.
	ResumeWindow time.Duration
	// MaxPictureBytes caps the payload size a frame may declare before
	// the server allocates for it (default
	// transport.DefaultMaxPictureBytes).
	MaxPictureBytes int
	// TimeScale compresses egress pacing, like transport.Sender: wall
	// durations are schedule durations divided by TimeScale (default 1).
	TimeScale float64
	// Egress is the shared link sink; nil means io.Discard. Writes from
	// all streams are serialized onto it in pacing order.
	Egress io.Writer
	// Clock abstracts time for tests; nil means the wall clock.
	Clock transport.Clock
	// Journal, when set, is the crash-safety write-ahead log: stream
	// admissions, accept watermarks, completions, and expiries are
	// recorded (fsynced before any verdict or ack a sender may act on),
	// and New replays the journal's recovered state into the session
	// table and admission reservations — so a sender redialing after a
	// server crash gets a correct resume or AlreadyComplete verdict
	// instead of a rejection.
	// The server owns the journal from here: it is closed by Shutdown
	// and abandoned by Kill.
	Journal *journal.Journal
	// Quorum, when set, holds admission and completion verdicts after
	// the local journal fsync until the record's publish sequence is
	// acknowledged by a replication quorum (or the gate degrades to
	// local-only durability). A terminal gate error rolls the admission
	// back instead of acknowledging a commit replicas may never hold.
	Quorum CommitGate
	// Epoch is the primary fencing term stamped into every verdict and
	// redirect this server writes. A cluster primary sets it from the
	// journal's epoch record at promotion; a sender that has seen a
	// higher epoch treats this server's verdicts as coming from a
	// deposed primary. Zero means unclustered (no stamping semantics).
	Epoch uint64
	// Route, when set, maps a session key — a hello nonce or resume
	// token — to the owning shard's stream address. A session this
	// server does not own is answered with a transport.Redirect naming
	// addr instead of a verdict, so in a sharded fleet every shard can
	// be dialed and the hash ring decides placement. Nonce-less hellos
	// (no dedup key) are always treated as local.
	Route func(key uint64) (addr string, local bool)
	// OwnsToken, when set, filters freshly issued resume tokens so they
	// hash to this shard on the placement ring: resumes then route home
	// by the same rule that routed the hello.
	OwnsToken func(token uint64) bool
	// Integrity is the prefix-hash mode this server requires in every
	// hello (default IntegrityFNV). A hello declaring any other mode is
	// rejected as malformed. IntegrityHMAC requires IntegrityKey.
	Integrity transport.IntegrityMode
	// IntegrityKey is the shared secret for IntegrityHMAC sessions.
	IntegrityKey []byte
	// Logf, when set, receives one line per session outcome.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Policy == nil {
		cfg.Policy = core.BasicPolicy{}
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 32
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = cfg.ReadTimeout
	}
	if cfg.MaxPictureBytes <= 0 {
		cfg.MaxPictureBytes = transport.DefaultMaxPictureBytes
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.Egress == nil {
		cfg.Egress = io.Discard
	}
	if cfg.Clock == nil {
		cfg.Clock = transport.RealClock{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// Server is a running smoothd instance. Create with New, drive with
// Serve, stop with Shutdown.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	egress *link
	wg     sync.WaitGroup

	// pool recycles picture payload buffers across every stream: each
	// connection's FrameReader draws payloads from it (hello and resume
	// paths alike), and a buffer goes back once its bytes are finished
	// with — after egress paces the picture onto the link, or at once
	// when a replayed duplicate is dropped. Shared, so a short stream
	// starts on buffers earlier streams warmed.
	pool transport.BufferPool

	mu        sync.Mutex
	admission *netsim.Admission
	streams   map[uint64]*stream
	sessions  sessionTable // nonce, token and tombstone index (sessions.go)
	nextID    uint64
	ln        net.Listener
	closed    bool

	// journal is cfg.Journal (nil disables durability); the recovered
	// counters report what the journal replay rebuilt at startup.
	journal             *journal.Journal
	recoveredStreams    int64
	recoveredTombstones int64

	completed         int64
	failed            int64
	rejectedMalformed int64
	rejectedBusy      int64
	helloDeduped      int64
	alreadyComplete   int64
	redirected        int64

	// faultTotals accumulates finished streams' fault counters; active
	// streams' counters are added at snapshot time.
	faultTotals FaultCounts

	// finished keeps the last finishedKeep stream snapshots for ops and
	// post-mortems; worstHeadroom and delayViolations aggregate the
	// delay-bound outcome over every finished stream.
	finished        []StreamSnapshot
	worstHeadroom   float64
	delayViolations int64
}

// finishedKeep bounds the retained per-stream history.
const finishedKeep = 256

// tombstone records a completed stream's final state: enough to answer
// a late resume (the sender's copy of the completion ack was lost) with
// an AlreadyComplete verdict the sender can verify byte-exactly.
type tombstone struct {
	fnv      uint64 // final FNV-1a over every accepted payload, in order
	pictures int    // total pictures accepted
	expires  time.Time
}

// activeServer backs the process-wide "smoothd" expvar: the most
// recently created server is the one a production process runs.
var (
	activeServer atomic.Pointer[Server]
	expvarOnce   sync.Once
)

// New validates the configuration and prepares a server. When a
// journal is configured, its recovered state is replayed here: crashed
// streams come back parked (reservation held, waiting out the resume
// window for their sender to redial) and completion tombstones come
// back answerable.
func New(cfg Config) (*Server, error) {
	if cfg.LinkRate <= 0 || math.IsNaN(cfg.LinkRate) || math.IsInf(cfg.LinkRate, 0) {
		return nil, fmt.Errorf("server: non-positive link rate %v", cfg.LinkRate)
	}
	if !cfg.Integrity.Valid() {
		return nil, fmt.Errorf("server: unknown integrity mode %d", cfg.Integrity)
	}
	if cfg.Integrity == transport.IntegrityHMAC && len(cfg.IntegrityKey) == 0 {
		return nil, errors.New("server: integrity mode hmac-sha256 needs a key")
	}
	adm, err := netsim.NewAdmission(cfg.LinkRate)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg.withDefaults(),
		ctx:           ctx,
		cancel:        cancel,
		admission:     adm,
		streams:       map[uint64]*stream{},
		sessions:      newSessionTable(),
		worstHeadroom: math.Inf(1),
	}
	s.egress = newLink(s.cfg.Egress, s.cfg.WriteTimeout)
	s.journal = s.cfg.Journal
	if s.journal != nil {
		s.recoverFromJournal()
	}
	activeServer.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("smoothd", expvar.Func(func() any {
			if srv := activeServer.Load(); srv != nil {
				return srv.Snapshot()
			}
			return nil
		}))
	})
	return s, nil
}

// Serve accepts stream sessions on ln until the listener is closed
// (normally by Shutdown). Each connection is handled on its own
// goroutine pair: ingest (read, smooth, enqueue) and egress (pace onto
// the shared link).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Shutdown drains the server: it stops accepting sessions and waits for
// active streams to finish. If ctx expires first, remaining streams are
// cancelled and their connections closed, and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.journal != nil {
			return s.journal.Close()
		}
		return nil
	case <-ctx.Done():
		s.cancel()
		s.mu.Lock()
		for _, st := range s.streams {
			st.closeConn()
		}
		s.mu.Unlock()
		<-done
		if s.journal != nil {
			// Cancelled streams were NOT journaled as expired: their
			// sessions survive in the journal, so the next generation
			// recovers them parked and their senders resume.
			s.journal.Close()
		}
		return ctx.Err()
	}
}

// Kill terminates the server the way a crash would: the journal is
// abandoned (no flush, no graceful records), every stream's context is
// cancelled and its connection dropped, and nothing is acked or
// drained. The kill-and-restart chaos harness uses it as an in-process
// SIGKILL; combined with a journal on a power-loss-modelling FS, what
// the next generation recovers is exactly what was durable.
func (s *Server) Kill() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.mu.Unlock()
	if s.journal != nil {
		s.journal.Abandon()
	}
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	for _, st := range streams {
		st.closeConn()
	}
	s.wg.Wait()
}

// SeverConns force-closes every live stream connection without
// stopping the server: streams park (or fail, if resumption is off)
// exactly as they would on a network fault. The cluster's partition
// simulation uses it so an isolated primary loses its clients the way
// a real partition would take them.
func (s *Server) SeverConns() {
	s.mu.Lock()
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.mu.Unlock()
	for _, st := range streams {
		st.closeConn()
	}
}

// recoverFromJournal replays the journal's recovered state into the
// session table: live streams come back parked (session rebuilt at
// the journaled watermark, prefix hash restored, reservation
// rehydrated) with a goroutine waiting out the resume window; unexpired
// tombstones come back answerable. Records that no longer fit this
// generation's configuration are expired in the journal rather than
// resurrected wrong.
func (s *Server) recoverFromJournal() {
	state := s.journal.State()
	now := time.Now()
	expire := func(token, nonce uint64, reason journal.ExpireReason, why string) {
		if _, err := s.journal.Expired(token, nonce, reason); err != nil {
			s.cfg.Logf("smoothd: recovery: expiring %016x (%s): %v", token, why, err)
		} else {
			s.cfg.Logf("smoothd: recovery: dropped journaled %s for token %016x", why, token)
		}
	}
	for token, rec := range state.Streams {
		if s.cfg.ResumeWindow <= 0 {
			expire(token, rec.Hello.Nonce, journal.ExpireResumeWindow, "stream (resumption disabled)")
			continue
		}
		if rec.Hello.Integrity != s.cfg.Integrity {
			expire(token, rec.Hello.Nonce, journal.ExpireFailed, "stream (integrity mode changed)")
			continue
		}
		ph, err := transport.NewPrefixHash(rec.Hello.Integrity, s.cfg.IntegrityKey)
		if err == nil && len(rec.HashState) > 0 {
			err = ph.Restore(rec.HashState)
		}
		if err != nil {
			expire(token, rec.Hello.Nonce, journal.ExpireFailed, "stream (prefix hash unrecoverable)")
			continue
		}
		st := newParkedStream(rec.Hello, s.cfg.QueueLen, ph, rec.Watermark)
		h := s.cfg.H
		if h <= 0 {
			h = rec.Hello.GOP.N
		}
		sess, err := core.NewSession(rec.Hello.Tau, rec.Hello.GOP, core.Config{
			K: rec.Hello.K, D: rec.Hello.D, H: h, Policy: s.cfg.Policy,
		}, core.WithObserver(st.observe))
		if err != nil {
			expire(token, rec.Hello.Nonce, journal.ExpireFailed, "stream (session rebuild failed)")
			continue
		}
		st.sess = sess
		st.token = token
		s.mu.Lock()
		s.nextID++
		st.id = s.nextID
		s.streams[st.id] = st
		s.sessions.add(st)
		s.admission.Rehydrate(rec.Hello.PeakRate)
		s.recoveredStreams++
		s.mu.Unlock()
		s.cfg.Logf("smoothd: recovered stream %d (token %016x) parked at picture %d awaiting resume",
			st.id, token, rec.Watermark)
		s.wg.Add(1)
		go func(st *stream) {
			defer s.wg.Done()
			err := s.run(st, nil)
			s.finish(st, err)
			st.closeConn()
		}(st)
	}
	// Entomb in expiry order, so each tombstone lands at the FIFO's tail.
	tombs := make([]*journal.TombstoneRecord, 0, len(state.Tombstones))
	for token, tb := range state.Tombstones {
		if now.After(tb.Expires) || len(tb.HashState) < 8 {
			expire(token, tb.Nonce, journal.ExpireTombstone, "tombstone (expired)")
			continue
		}
		tombs = append(tombs, tb)
	}
	slices.SortFunc(tombs, func(a, b *journal.TombstoneRecord) int { return a.Expires.Compare(b.Expires) })
	s.mu.Lock()
	for _, tb := range tombs {
		s.sessions.entomb(tb.Token, tombstone{
			fnv:      binary.BigEndian.Uint64(tb.HashState),
			pictures: tb.Pictures,
			expires:  tb.Expires,
		}, now)
	}
	s.recoveredTombstones += int64(len(tombs))
	s.mu.Unlock()
}

// journalWatermark coalesces the stream's accept watermark and prefix
// hash state for the journal's next flush; it never blocks on the disk.
func (s *Server) journalWatermark(st *stream) {
	if s.journal == nil || st.token == 0 {
		return
	}
	next, state := st.prefixState()
	s.journal.Watermark(st.token, next, state)
	// state is the stream's scratch buffer; Watermark copied it into the
	// journal's own coalescing entry, so it is free for the next picture.
}

// journalComplete makes a stream's completion durable — called before
// the completion ack is written, so an acked stream is always
// answerable as AlreadyComplete after a crash. A failure here degrades
// durability, not correctness: the un-journaled completion recovers as
// a fully-caught-up parked stream, and the sender's resume completes it
// again idempotently.
func (s *Server) journalComplete(st *stream) (uint64, error) {
	if s.journal == nil || st.token == 0 {
		return 0, nil
	}
	next, sum := st.resumePoint()
	var state [8]byte
	binary.BigEndian.PutUint64(state[:], sum)
	return s.journal.Completed(journal.TombstoneRecord{
		Token: st.token, Nonce: st.hello.Nonce, Pictures: next,
		HashState: state[:], Expires: time.Now().Add(s.tombstoneTTL()),
	})
}

// handle runs one connection: the first message decides whether it is a
// new session (StreamHello) or a reconnect (StreamResume). One
// FrameReader/FrameWriter pair owns each direction for the connection's
// whole life — the frame sequence counters span handshake and stream.
func (s *Server) handle(conn net.Conn) {
	fr := transport.NewFrameReaderBuffered(conn)
	fr.MaxPayload = s.cfg.MaxPictureBytes
	fr.Pool = &s.pool
	fw := transport.NewFrameWriter(conn)
	fw.WriteTimeout = s.cfg.WriteTimeout
	fw.MaxPayload = s.cfg.MaxPictureBytes

	msg, err := fr.ReadMessageTimeout(s.cfg.ReadTimeout)
	if err != nil {
		s.rejectConn(conn, fw, transport.RejectedMalformed, err)
		return
	}
	switch m := msg.(type) {
	case *transport.StreamHello:
		s.handleHello(conn, fr, fw, m)
	case *transport.StreamResume:
		s.handleResume(conn, fr, fw, m)
	default:
		s.rejectConn(conn, fw, transport.RejectedMalformed,
			fmt.Errorf("server: expected hello or resume, got %T", msg))
	}
}

// redirectIfRemote answers a handshake whose session key another shard
// owns with that shard's address (best effort) and closes the
// connection. It reports whether the connection was redirected.
func (s *Server) redirectIfRemote(conn net.Conn, fw *transport.FrameWriter, key uint64) bool {
	if s.cfg.Route == nil {
		return false
	}
	addr, local := s.cfg.Route(key)
	if local {
		return false
	}
	s.mu.Lock()
	s.redirected++
	s.mu.Unlock()
	fw.WriteRedirect(transport.Redirect{Addr: addr, Epoch: s.cfg.Epoch})
	conn.Close()
	s.cfg.Logf("smoothd: %s redirected to %s (key %016x not owned by this shard)",
		conn.RemoteAddr(), addr, key)
	return true
}

// rejectConn answers a doomed connection with a verdict (best effort)
// and closes it.
func (s *Server) rejectConn(conn net.Conn, fw *transport.FrameWriter, code transport.VerdictCode, cause error) {
	s.mu.Lock()
	switch code {
	case transport.RejectedMalformed:
		s.rejectedMalformed++
	case transport.RejectedBusy:
		s.rejectedBusy++
	}
	avail := s.admission.Available()
	s.mu.Unlock()
	fw.WriteVerdict(transport.Verdict{Code: code, Available: avail, Epoch: s.cfg.Epoch})
	conn.Close()
	s.cfg.Logf("smoothd: %s %s: %v", conn.RemoteAddr(), code, cause)
}

// handleHello runs a new session from admission to completion. A hello
// whose nonce matches a live stream is a retransmission — the sender's
// copy of our admission verdict was lost in flight and it redialed — so
// instead of reserving a second session we reattach the connection to
// the existing one, exactly as a resume would.
func (s *Server) handleHello(conn net.Conn, fr *transport.FrameReader, fw *transport.FrameWriter, hello *transport.StreamHello) {
	if hello.Nonce != 0 && s.redirectIfRemote(conn, fw, hello.Nonce) {
		return
	}
	st, prior, verdict, err := s.admit(conn, fr, fw, hello)
	if prior != nil {
		s.cfg.Logf("smoothd: stream %d hello deduplicated by nonce from %s", prior.id, conn.RemoteAddr())
		s.reattach(conn, fr, fw, prior, prior.token)
		return
	}
	if werr := fw.WriteVerdict(verdict); werr != nil && err == nil {
		err = werr
	}
	if st == nil {
		conn.Close()
		s.cfg.Logf("smoothd: %s %s: %v", conn.RemoteAddr(), verdict.Code, err)
		return
	}
	st.mu.Lock()
	st.verdictDue = false
	st.mu.Unlock()
	err = s.run(st, err)
	s.finish(st, err)
	st.closeConn()
}

// handleResume hands a reconnecting sender's connection to its parked
// stream. An unknown token is checked against the completion tombstones
// first: a sender that finished but lost the completion ack gets an
// AlreadyComplete verdict carrying the final hash, not a rejection.
func (s *Server) handleResume(conn net.Conn, fr *transport.FrameReader, fw *transport.FrameWriter, m *transport.StreamResume) {
	if s.redirectIfRemote(conn, fw, m.Token) {
		return
	}
	s.mu.Lock()
	st := s.sessions.byToken[m.Token]
	var tomb tombstone
	entombed := false
	if st == nil {
		if tomb, entombed = s.sessions.tomb(m.Token, time.Now()); entombed {
			s.alreadyComplete++
		}
	}
	closed := s.closed
	avail := s.admission.Available()
	s.mu.Unlock()
	if entombed {
		fw.WriteVerdict(transport.Verdict{
			Code: transport.AlreadyComplete, Available: avail,
			ResumeToken: m.Token, NextIndex: tomb.pictures, PrefixFNV: tomb.fnv,
			Epoch: s.cfg.Epoch,
		})
		conn.Close()
		s.cfg.Logf("smoothd: resume from %s answered already-complete (%d pictures, fnv %016x)",
			conn.RemoteAddr(), tomb.pictures, tomb.fnv)
		return
	}
	if st == nil || closed {
		s.rejectConn(conn, fw, transport.RejectedMalformed,
			fmt.Errorf("server: resume with unknown token"))
		return
	}
	s.reattach(conn, fr, fw, st, m.Token)
}

// reattach hands a reconnecting sender's connection (resume by token or
// hello retransmission matched by nonce) to its parked stream. The
// accepting flag (under the stream's lock) serializes competing
// reconnect attempts; the verdict carrying the replay point and the
// accepted-prefix hash is written before the connection changes hands.
func (s *Server) reattach(conn net.Conn, fr *transport.FrameReader, fw *transport.FrameWriter, st *stream, token uint64) {
	s.mu.Lock()
	avail := s.admission.Available()
	s.mu.Unlock()
	st.mu.Lock()
	if !st.accepting {
		// The stream has not parked yet — most likely its ingest loop is
		// still blocked on the dead connection. Close that connection to
		// expedite fault detection; the sender's backoff retry will find
		// the stream parked. A connection still carrying the admission
		// verdict stays open: closing it would fail the admission.
		var old net.Conn
		if !st.verdictDue {
			old = st.conn
		}
		st.mu.Unlock()
		if old != nil {
			old.Close()
		}
		s.rejectConn(conn, fw, transport.RejectedBusy,
			fmt.Errorf("server: stream %d not yet accepting resume", st.id))
		return
	}
	st.accepting = false // claim the resume slot
	st.mu.Unlock()
	// The claim parks the watermark: ingest is blocked on resumeCh, so
	// the resume point cannot move under us.
	next, prefix := st.resumePoint()

	if err := fw.WriteVerdict(transport.Verdict{
		Code: transport.Admitted, Available: avail,
		ResumeToken: token, NextIndex: next, PrefixFNV: prefix,
		Epoch: s.cfg.Epoch,
	}); err != nil {
		// Could not deliver the replay point; reopen the slot for the
		// sender's next attempt.
		st.mu.Lock()
		st.accepting = true
		st.mu.Unlock()
		conn.Close()
		return
	}
	st.mu.Lock()
	if st.resumeGone {
		// The resume window expired between our claim and now; the
		// stream is finishing and will never read the channel.
		st.mu.Unlock()
		conn.Close()
		return
	}
	st.resumeCh <- resumedConn{conn: conn, fr: fr, fw: fw}
	st.mu.Unlock()
	s.cfg.Logf("smoothd: stream %d resumed from %s at picture %d", st.id, conn.RemoteAddr(), next)
}

// admit validates the hello and takes the admission decision. It
// returns the admitted stream, or else the live stream (prior) whose
// nonce the hello repeats, with nothing reserved; when both are nil the
// connection ends after the verdict.
func (s *Server) admit(conn net.Conn, fr *transport.FrameReader, fw *transport.FrameWriter, hello *transport.StreamHello) (*stream, *stream, transport.Verdict, error) {
	reject := func(code transport.VerdictCode, err error) (*stream, *stream, transport.Verdict, error) {
		s.mu.Lock()
		switch code {
		case transport.RejectedMalformed:
			s.rejectedMalformed++
		case transport.RejectedBusy:
			s.rejectedBusy++
		}
		avail := s.admission.Available()
		s.mu.Unlock()
		return nil, nil, transport.Verdict{Code: code, Available: avail, Epoch: s.cfg.Epoch}, err
	}

	if hello.Integrity != s.cfg.Integrity {
		return reject(transport.RejectedMalformed,
			fmt.Errorf("server: hello integrity mode %s, this server requires %s",
				hello.Integrity, s.cfg.Integrity))
	}
	ph, err := transport.NewPrefixHash(hello.Integrity, s.cfg.IntegrityKey)
	if err != nil {
		return reject(transport.RejectedMalformed, err)
	}

	h := s.cfg.H
	if h <= 0 {
		h = hello.GOP.N
	}
	st := newStream(conn, fr, fw, *hello, s.cfg.QueueLen, ph)
	sess, err := core.NewSession(hello.Tau, hello.GOP, core.Config{
		K: hello.K, D: hello.D, H: h, Policy: s.cfg.Policy,
	}, core.WithObserver(st.observe))
	if err != nil {
		return reject(transport.RejectedMalformed, err)
	}
	st.sess = sess
	// Set before the stream is published: a reattach racing this
	// admission must not close the connection that carries its verdict.
	st.verdictDue = true

	// The nonce check and the reservation share one critical section,
	// so concurrent copies of one hello can never reserve twice.
	s.mu.Lock()
	if prior := s.sessions.byNonce[hello.Nonce]; prior != nil {
		if prior.hello != *hello {
			s.mu.Unlock()
			return reject(transport.RejectedMalformed,
				fmt.Errorf("server: hello nonce %016x reused with different parameters", hello.Nonce))
		}
		s.helloDeduped++
		s.mu.Unlock()
		return nil, prior, transport.Verdict{}, nil
	}
	if s.closed || (s.cfg.MaxStreams > 0 && int64(s.cfg.MaxStreams) <= s.admission.Active()) {
		s.mu.Unlock()
		return reject(transport.RejectedBusy, errors.New("server: at stream limit or shutting down"))
	}
	if !s.admission.Admit(hello.PeakRate) {
		avail := s.admission.Available()
		s.mu.Unlock()
		return nil, nil, transport.Verdict{Code: transport.RejectedCapacity, Available: avail, Epoch: s.cfg.Epoch},
			fmt.Errorf("server: peak %.0f bps exceeds available %.0f bps", hello.PeakRate, avail)
	}
	s.nextID++
	st.id = s.nextID
	s.streams[st.id] = st
	if s.cfg.ResumeWindow > 0 {
		st.token = s.newTokenLocked()
	}
	s.sessions.add(st)
	avail := s.admission.Available()
	s.mu.Unlock()
	if s.journal != nil && st.token != 0 {
		// The admission fact must be durable before the verdict leaves:
		// a sender acting on an admission the journal forgot would be
		// rejected as unknown after a crash. The fsync runs outside s.mu
		// so concurrent admissions serialize only on the journal.
		rollback := func(cause error) (*stream, *stream, transport.Verdict, error) {
			s.mu.Lock()
			s.admission.Release(hello.PeakRate)
			delete(s.streams, st.id)
			s.sessions.drop(st)
			s.rejectedBusy++
			avail = s.admission.Available()
			s.mu.Unlock()
			return nil, nil, transport.Verdict{Code: transport.RejectedBusy, Available: avail, Epoch: s.cfg.Epoch}, cause
		}
		seq, jerr := s.journal.Admitted(journal.StreamRecord{Token: st.token, Hello: *hello})
		if jerr != nil {
			return rollback(fmt.Errorf("server: admission not journalable: %w", jerr))
		}
		if s.cfg.Quorum != nil {
			// Hold the verdict until a replication quorum holds the
			// admission record (or the gate degrades to local-only
			// durability). A terminal gate error means the record's
			// replication fate is unknown and the server is dying: undo
			// the admission — including its journal record, best effort —
			// and send the sender back around rather than acknowledge a
			// commit a promoted follower may have never seen.
			if qerr := s.cfg.Quorum.WaitCommitted(s.ctx, seq); qerr != nil {
				if _, xerr := s.journal.Expired(st.token, hello.Nonce, journal.ExpireFailed); xerr != nil {
					s.cfg.Logf("smoothd: quorum rollback expiry for token %016x failed: %v", st.token, xerr)
				}
				return rollback(fmt.Errorf("server: admission quorum not reached: %w", qerr))
			}
		}
	}
	_, prefix := st.resumePoint() // empty hash: nothing accepted yet
	return st, nil, transport.Verdict{
		Code: transport.Admitted, Available: avail, ResumeToken: st.token, PrefixFNV: prefix,
		Epoch: s.cfg.Epoch,
	}, nil
}

// tombstoneTTL bounds how long a completed stream answers late resumes
// with AlreadyComplete. It must comfortably cover the sender's resume
// window plus its backoff schedule.
func (s *Server) tombstoneTTL() time.Duration {
	if ttl := 2 * s.cfg.ResumeWindow; ttl > 30*time.Second {
		return ttl
	}
	return 30 * time.Second
}

// newTokenLocked draws an unguessable, unused, nonzero resume token.
// Caller holds s.mu.
func (s *Server) newTokenLocked() uint64 {
	var buf [8]byte
	for {
		if _, err := cryptorand.Read(buf[:]); err != nil {
			// crypto/rand failing is a broken platform; fall back to the
			// monotone id so the server still runs (tokens are then
			// guessable, which only weakens resume hijack resistance).
			return s.nextID<<32 | uint64(time.Now().UnixNano()&0xFFFFFFFF)
		}
		tok := binary.BigEndian.Uint64(buf[:])
		if tok == 0 {
			continue
		}
		if _, taken := s.sessions.byToken[tok]; taken {
			continue
		}
		// Rejection-sample until the token hashes to this shard on the
		// placement ring, so a later resume routes straight home
		// (expected draws = shard count).
		if s.cfg.OwnsToken != nil && !s.cfg.OwnsToken(tok) {
			continue
		}
		return tok
	}
}

// run drives an admitted stream: ingest on this goroutine, egress on a
// second. admitErr carries a verdict-write failure from handleHello.
func (s *Server) run(st *stream, admitErr error) error {
	if admitErr != nil {
		close(st.queue)
		return admitErr
	}
	egressDone := make(chan error, 1)
	go func() {
		egressDone <- st.runEgress(s.ctx, s.egress, &s.pool, s.cfg.Clock, s.cfg.TimeScale)
	}()
	ingestErr := st.runIngest(s.ctx, s)
	egressErr := <-egressDone
	if ingestErr != nil {
		return ingestErr
	}
	return egressErr
}

// finish releases the stream's reservation and records its outcome.
func (s *Server) finish(st *stream, err error) {
	ss := st.snapshot()
	s.mu.Lock()
	s.admission.Release(st.hello.PeakRate)
	delete(s.streams, st.id)
	s.sessions.drop(st)
	if st.token != 0 && err == nil {
		// Tombstone the completed stream before s.mu is released: a
		// resume that finds the token gone from byToken serialized after
		// this critical section, so it always finds either the live
		// stream or the tombstone, never a gap.
		now := time.Now()
		s.sessions.entomb(st.token, tombstone{
			fnv: ss.PayloadFNV, pictures: ss.Pictures,
			expires: now.Add(s.tombstoneTTL()),
		}, now)
	}
	if err != nil {
		s.failed++
	} else {
		s.completed++
	}
	s.faultTotals.add(ss.Faults)
	s.finished = append(s.finished, ss)
	if len(s.finished) > finishedKeep {
		s.finished = s.finished[1:]
	}
	if ss.Decisions > 0 && ss.DelayHeadroom < s.worstHeadroom {
		s.worstHeadroom = ss.DelayHeadroom
	}
	if ss.MaxDelay > ss.DelayBound+delayTolerance {
		s.delayViolations++
	}
	s.mu.Unlock()
	if err != nil && s.journal != nil && st.token != 0 && s.ctx.Err() == nil {
		// A terminal failure releases the reservation, so the journal
		// must forget the stream too — otherwise the next generation
		// would rehydrate a reservation nobody holds. Streams ended by
		// shutdown cancellation are deliberately NOT expired: they stay
		// journaled so the next generation recovers them parked.
		reason := journal.ExpireFailed
		if st.resumeWindowLapsed() {
			reason = journal.ExpireResumeWindow
		}
		if _, jerr := s.journal.Expired(st.token, st.hello.Nonce, reason); jerr != nil {
			s.cfg.Logf("smoothd: stream %d expiry journal write failed: %v", st.id, jerr)
		}
	}
	if err != nil {
		s.cfg.Logf("smoothd: stream %d from %s failed: %v", st.id, ss.Remote, err)
	} else {
		s.cfg.Logf("smoothd: stream %d from %s completed: %d pictures, peak %.0f bps",
			st.id, ss.Remote, ss.Pictures, ss.SessionPeak)
	}
}

// parkGauge moves the admission parked gauge as streams enter and leave
// the resume window.
func (s *Server) parkGauge(delta int) {
	s.mu.Lock()
	if delta > 0 {
		s.admission.Park()
	} else {
		s.admission.Unpark()
	}
	s.mu.Unlock()
}

// Draining reports whether the server has stopped admitting new
// sessions: Shutdown has begun (or the listener died). A draining
// server is alive but not ready — /healthz distinguishes the two.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// FinishedStreams returns snapshots of the most recently finished
// streams (up to finishedKeep), oldest first.
func (s *Server) FinishedStreams() []StreamSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StreamSnapshot, len(s.finished))
	copy(out, s.finished)
	return out
}

// link serializes all streams' paced writes onto the shared egress sink
// and accounts the bits that crossed it. When the sink supports write
// deadlines (a net.Conn egress), each write is bounded by the server's
// WriteTimeout so a wedged downstream cannot stall every stream forever.
type link struct {
	mu      sync.Mutex
	w       io.Writer
	d       interface{ SetWriteDeadline(time.Time) error }
	timeout time.Duration
	bits    int64
}

func newLink(w io.Writer, timeout time.Duration) *link {
	l := &link{w: w, timeout: timeout}
	if d, ok := w.(interface{ SetWriteDeadline(time.Time) error }); ok {
		l.d = d
	}
	return l
}

func (l *link) write(p []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.d != nil && l.timeout > 0 {
		if err := l.d.SetWriteDeadline(time.Now().Add(l.timeout)); err != nil {
			return fmt.Errorf("server: arming egress write deadline: %w", err)
		}
	}
	if _, err := l.w.Write(p); err != nil {
		return err
	}
	l.bits += int64(len(p)) * 8
	return nil
}

func (l *link) totalBits() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bits
}
