package transport

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// The datagram ARQ connection: selective-repeat reliability over a
// lossy packet channel, presented as a net.Conn. The stream protocol
// (FrameReader/FrameWriter, hello/verdict/resume, exactly-once
// admission) runs over a DGConn unchanged — the ARQ layer's whole job
// is to make reorder, duplication, and burst loss look like an
// ordinary reliable byte stream that occasionally slows down or, past
// the retransmission budget, fails with a classified, retryable fault.
//
// Reliability machinery, per direction:
//
//   - Send window of cfg.Window (≤ 64) packets, held in a fixed ring
//     whose packet buffers the flow recycles. Write blocks while the
//     window is full; every unacked packet is retransmitted on a
//     jittered exponential timeout (transport.Backoff) and failed with
//     ErrRetransmitExhausted after cfg.MaxRetransmits timeout attempts.
//   - Cumulative + bitmap acks, delayed: the receiver acks every second
//     in-order DATA packet, and at once on a gap, a duplicate, or FIN;
//     the retransmit tick flushes an ack still owed. An ACK carries
//     rcvNext and a 64-bit map of out-of-order packets held in
//     reassembly; bitmap acks both stop retransmission of received
//     packets and serve as gap evidence.
//   - Send-order gap evidence. Every transmission takes the next value
//     of a per-flow send counter. An unacked packet gains evidence only
//     from an ACK newly reporting a packet first sent after the unacked
//     packet's latest transmission; dgGapRetransmit such ACKs
//     fast-retransmit it ahead of its timeout, and the resend restamps
//     it, so ACKs already in flight cannot fire it again. That is one
//     fast retransmit per loss per flight.
//   - Bounded reassembly (dgReassemblyWindow), a ring of reusable
//     slots plus a presence bitmap from which each ACK's bitmap is
//     read in O(1). Duplicates are dropped and re-acked (the duplicate
//     means our ACK was lost); a sequence beyond the window tears the
//     flow down with ErrReorderOverflow.
//   - FIN occupies a sequence slot, so end-of-stream is retransmitted
//     and acked like data; the reader drains buffered bytes then io.EOF.
//
// Flow incarnations: every dial draws a random 32-bit connection ID
// stamped on every packet. Packets under a different ID drop silently
// (counted as stale), and an ACK for sequences never sent fails the
// flow with ErrStaleDuplicate — the redial that follows picks a fresh
// ID and shakes the stale incarnation off.

// DatagramConfig parameterizes the ARQ layer. The zero value is ready
// to use.
type DatagramConfig struct {
	// MTU is the per-packet payload budget (default DatagramMTU).
	MTU int
	// Window is the send window in packets, capped at 64 to match the
	// ACK bitmap (default 64).
	Window int
	// RTO is the retransmission backoff schedule per packet: attempt n
	// waits RTO.Delay(n) after the previous send. Defaults to
	// Base 25ms / Max 1s with Backoff's factor-2 jittered growth.
	RTO Backoff
	// MaxRetransmits bounds a packet's timeout-driven attempts, the
	// first send included, before the flow fails with
	// ErrRetransmitExhausted (default 14). Fast retransmits do not
	// count against it.
	MaxRetransmits int
	// Linger bounds how long Close keeps retransmitting unacked packets
	// (including the FIN) in the background before releasing the
	// underlying socket (default 1s).
	Linger time.Duration
	// Seed fixes the RTO jitter stream for deterministic tests; 0 draws
	// a random seed.
	Seed int64
	// AcceptBacklog bounds the listener's queue of new flows awaiting
	// Accept (default 64). Flows arriving past it are dropped; the
	// peer's retransmission redelivers once the queue drains.
	AcceptBacklog int
}

func (c DatagramConfig) withDefaults() DatagramConfig {
	if c.MTU <= 0 {
		c.MTU = DatagramMTU
	}
	if c.MTU > dgMaxPayload {
		c.MTU = dgMaxPayload
	}
	if c.Window <= 0 || c.Window > dgSendWindow {
		c.Window = dgSendWindow
	}
	if c.RTO.Base <= 0 {
		c.RTO.Base = 25 * time.Millisecond
	}
	if c.RTO.Max <= 0 {
		c.RTO.Max = time.Second
	}
	if c.MaxRetransmits <= 0 {
		c.MaxRetransmits = 14
	}
	if c.Linger <= 0 {
		c.Linger = time.Second
	}
	if c.AcceptBacklog <= 0 {
		c.AcceptBacklog = 64
	}
	if c.Seed == 0 {
		c.Seed = randomSeed()
	}
	return c
}

func randomSeed() int64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return 1
	}
	s := int64(binary.BigEndian.Uint64(b[:]) >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

func randomConnID() uint32 {
	var b [4]byte
	for {
		if _, err := cryptorand.Read(b[:]); err != nil {
			return 0xC0FFEE
		}
		if id := binary.BigEndian.Uint32(b[:]); id != 0 {
			return id
		}
	}
}

// DGStats are one flow's ARQ counters, for tests and diagnostics.
type DGStats struct {
	// Sent counts first transmissions; Retransmits timeout-driven
	// resends; FastRetransmits gap-evidence resends.
	Sent            int64
	Retransmits     int64
	FastRetransmits int64
	// MaxTransmissions is the most transmissions any one packet took,
	// its first send and every retransmit included.
	MaxTransmissions int64
	// AcksSent counts ACK packets this flow transmitted.
	AcksSent int64
	// DupsDropped counts received duplicates (already delivered or
	// already buffered); StaleDropped packets under a foreign
	// connection ID.
	DupsDropped  int64
	StaleDropped int64
}

// dgOut is one send-window slot: an in-flight outbound packet.
type dgOut struct {
	buf      []byte // encoded packet, resent verbatim; to spare once acked
	attempts int    // first send plus timeout retransmits: the backoff step
	sends    int    // every transmission, fast retransmits included
	lastSent time.Time
	first    uint64 // send counter at the first transmission
	stamp    uint64 // send counter at the latest transmission
	gapHits  int    // ACKs since then newly reporting a packet first sent after it
}

// DGConn is one datagram ARQ flow. It implements net.Conn, including
// the deadline methods FrameReader/FrameWriter and the server's
// timeout discipline rely on.
type DGConn struct {
	cfg    DatagramConfig
	connID uint32
	local  net.Addr
	remote net.Addr
	// send transmits one encoded packet, best-effort: errors are
	// ignored because the retransmission schedule is the delivery
	// guarantee. It must not retain the slice, which is rewritten by
	// later packets. done releases the underlying transport (closes the
	// socket or deregisters from the listener) exactly once.
	send func([]byte)
	done func()

	mu   sync.Mutex
	cond *sync.Cond

	// Sender state: window [sndBase, sndNext) in outs, slot
	// seq % dgSendRing. sacked bit i marks sndBase+i selectively acked;
	// sndClock counts transmissions.
	sndBase  uint32
	sndNext  uint32
	outs     []dgOut
	sacked   uint64
	sndClock uint64
	finSent  bool

	// Receiver state: rcvSlots holds out-of-order packets ≥ rcvNext at
	// slot seq % dgReassemblyWindow, rcvHeld bit seq % dgReassemblyWindow
	// marks the slot occupied; readBuf is the in-order byte stream
	// awaiting Read; ackOwed counts in-order DATA not yet acked.
	rcvNext  uint32
	rcvSlots [][]byte
	rcvHeld  [dgReassemblyWindow / 64]uint64
	ackOwed  int
	haveFin  bool
	finSeq   uint32
	gotFin   bool // FIN delivered in order: EOF once readBuf drains
	readBuf  []byte
	readOff  int

	// spare holds the packet buffers of acked and delivered slots, so
	// a flow allocates only for its peak of packets in flight or
	// parked. The rings and spare are dropped when the flow stops.
	spare [][]byte

	rdl, wdl           time.Time
	rdlTimer, wdlTimer *time.Timer

	err      error // terminal fault
	closed   bool  // Close called: user-visible operations fail
	stopped  bool  // machinery halted, transport released
	stopCh   chan struct{}
	doneOnce sync.Once

	rng        *rand.Rand // RTO jitter; guarded by mu
	stats      DGStats
	ackScratch []byte
}

func newDGConn(cfg DatagramConfig, connID uint32, local, remote net.Addr,
	send func([]byte), done func()) *DGConn {
	c := &DGConn{
		cfg:      cfg,
		connID:   connID,
		local:    local,
		remote:   remote,
		send:     send,
		done:     done,
		outs:     make([]dgOut, dgSendRing),
		rcvSlots: make([][]byte, dgReassemblyWindow),
		stopCh:   make(chan struct{}),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.retransmitLoop()
	return c
}

// ConnID exposes the flow incarnation ID (tests, diagnostics).
func (c *DGConn) ConnID() uint32 { return c.connID }

// Stats snapshots the flow's ARQ counters.
func (c *DGConn) Stats() DGStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *DGConn) LocalAddr() net.Addr  { return c.local }
func (c *DGConn) RemoteAddr() net.Addr { return c.remote }

// Write chops p into MTU-sized packets, blocking whenever the send
// window is full until acks open it (or the write deadline expires).
func (c *DGConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for n < len(p) {
		if err := c.waitWindowLocked(); err != nil {
			return n, err
		}
		m := min(c.cfg.MTU, len(p)-n)
		c.transmitLocked(dgKindData, p[n:n+m])
		n += m
	}
	return n, nil
}

// waitWindowLocked blocks until the send window has room.
func (c *DGConn) waitWindowLocked() error {
	for {
		switch {
		case c.err != nil:
			return c.err
		case c.closed:
			return net.ErrClosed
		case !c.wdl.IsZero() && !time.Now().Before(c.wdl):
			return os.ErrDeadlineExceeded
		case c.sndNext-c.sndBase < uint32(c.cfg.Window):
			return nil
		}
		c.cond.Wait()
	}
}

// outLocked returns seq's send-window slot.
func (c *DGConn) outLocked(seq uint32) *dgOut {
	return &c.outs[seq%dgSendRing]
}

// bufLocked returns an empty packet buffer with room for n bytes,
// reusing a spare one when it fits.
func (c *DGConn) bufLocked(n int) []byte {
	if k := len(c.spare); k > 0 && cap(c.spare[k-1]) >= n {
		b := c.spare[k-1]
		c.spare = c.spare[:k-1]
		return b[:0]
	}
	return make([]byte, 0, max(n, dgDataHeader+c.cfg.MTU+dgTrailer))
}

// sackedLocked reports whether seq, in the send window, was
// selectively acked.
func (c *DGConn) sackedLocked(seq uint32) bool {
	return c.sacked>>(seq-c.sndBase)&1 != 0
}

// transmitLocked assigns the next sequence, encodes the packet into
// its send-window slot, and transmits it once.
func (c *DGConn) transmitLocked(kind byte, payload []byte) {
	seq := c.sndNext
	c.sndNext++
	out := c.outLocked(seq)
	buf := c.bufLocked(dgDataHeader + len(payload) + dgTrailer)
	*out = dgOut{buf: appendDataPacket(buf, kind, c.connID, seq, payload), attempts: 1}
	c.stats.Sent++
	c.sendOutLocked(out, time.Now())
	out.first = out.stamp
}

// sendOutLocked transmits out under a fresh send stamp, so only
// packets first sent after this copy can count as evidence that it,
// too, was lost.
func (c *DGConn) sendOutLocked(out *dgOut, now time.Time) {
	c.sndClock++
	out.stamp = c.sndClock
	out.lastSent = now
	out.gapHits = 0
	out.sends++
	c.stats.MaxTransmissions = max(c.stats.MaxTransmissions, int64(out.sends))
	c.send(out.buf)
}

// Read delivers in-order bytes, blocking until data, EOF, a terminal
// fault, or the read deadline.
func (c *DGConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.readOff < len(c.readBuf) {
			n := copy(p, c.readBuf[c.readOff:])
			c.readOff += n
			if c.readOff == len(c.readBuf) {
				c.readBuf = c.readBuf[:0]
				c.readOff = 0
			}
			return n, nil
		}
		switch {
		case c.gotFin:
			return 0, io.EOF
		case c.err != nil:
			return 0, c.err
		case c.closed:
			return 0, net.ErrClosed
		case !c.rdl.IsZero() && !time.Now().Before(c.rdl):
			return 0, os.ErrDeadlineExceeded
		}
		c.cond.Wait()
	}
}

// handlePacket is the ingress path, called by the socket read loop
// (client) or listener demux (server) with a decoded packet whose
// payload aliases the read buffer.
func (c *DGConn) handlePacket(pkt dgPacket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	if pkt.Conn != c.connID {
		c.stats.StaleDropped++
		return
	}
	switch pkt.Kind {
	case dgKindData, dgKindFin:
		c.handleDataLocked(pkt)
	case dgKindAck:
		c.handleAckLocked(pkt)
	}
}

// heldLocked reports whether reassembly slot seq % window is occupied.
func (c *DGConn) heldLocked(seq uint32) bool {
	i := seq % dgReassemblyWindow
	return c.rcvHeld[i/64]>>(i%64)&1 != 0
}

func (c *DGConn) handleDataLocked(pkt dgPacket) {
	switch {
	case pkt.Seq < c.rcvNext:
		// Already delivered: the duplicate means our ACK was lost, so
		// re-ack to let the sender's window advance.
		c.stats.DupsDropped++
		c.sendAckLocked()
		return
	case pkt.Seq >= c.rcvNext+dgReassemblyWindow:
		c.failLocked(fmt.Errorf("seq %d beyond reassembly window [%d,%d): %w",
			pkt.Seq, c.rcvNext, c.rcvNext+dgReassemblyWindow, ErrReorderOverflow))
		return
	case c.heldLocked(pkt.Seq):
		c.stats.DupsDropped++
		c.sendAckLocked()
		return
	}
	if pkt.Kind == dgKindFin {
		c.haveFin = true
		c.finSeq = pkt.Seq
	}
	if pkt.Seq != c.rcvNext {
		// A gap: park a copy (the payload aliases the caller's read
		// buffer) and ack at once, so the sender sees the evidence.
		i := pkt.Seq % dgReassemblyWindow
		c.rcvSlots[i] = append(c.bufLocked(len(pkt.Payload)), pkt.Payload...)
		c.rcvHeld[i/64] |= 1 << (i % 64)
		c.sendAckLocked()
		return
	}
	gap := c.rcvHeld != [len(c.rcvHeld)]uint64{}
	c.deliverLocked(pkt.Payload)
	for c.heldLocked(c.rcvNext) {
		i := c.rcvNext % dgReassemblyWindow
		c.rcvHeld[i/64] &^= 1 << (i % 64)
		c.deliverLocked(c.rcvSlots[i])
		c.spare = append(c.spare, c.rcvSlots[i])
		c.rcvSlots[i] = nil
	}
	c.cond.Broadcast()
	// Delayed ack: every second in-order packet, unless this one
	// closed (part of) a gap or ended the stream.
	if c.ackOwed++; gap || c.gotFin || c.ackOwed >= 2 {
		c.sendAckLocked()
	}
}

// deliverLocked appends packet rcvNext to the in-order stream (or, for
// the FIN, marks end-of-stream) and advances rcvNext.
func (c *DGConn) deliverLocked(payload []byte) {
	if c.haveFin && c.rcvNext == c.finSeq {
		c.gotFin = true
	} else {
		if c.readOff > 0 && len(c.readBuf)+len(payload) > cap(c.readBuf) {
			// Reclaim the consumed prefix before append would grow.
			n := copy(c.readBuf, c.readBuf[c.readOff:])
			c.readBuf, c.readOff = c.readBuf[:n], 0
		}
		c.readBuf = append(c.readBuf, payload...)
	}
	c.rcvNext++
}

// sendAckLocked transmits the receiver's current cumulative + bitmap
// acknowledgement. The bitmap (bit i: rcvNext+1+i held) is the 64
// presence bits following rcvNext, read straight off the ring.
func (c *DGConn) sendAckLocked() {
	i := (c.rcvNext + 1) % dgReassemblyWindow
	w, s := i/64, i%64
	bitmap := c.rcvHeld[w]>>s | c.rcvHeld[(w+1)%uint32(len(c.rcvHeld))]<<(64-s)
	c.ackOwed = 0
	c.stats.AcksSent++
	c.ackScratch = appendAckPacket(c.ackScratch[:0], c.connID, c.rcvNext, bitmap)
	c.send(c.ackScratch)
}

func (c *DGConn) handleAckLocked(pkt dgPacket) {
	if pkt.Cum > c.sndNext {
		// An ack for sequences this flow never sent can only come from
		// a stale or foreign incarnation that got past the ID check by
		// collision; the flow's accounting is compromised.
		c.failLocked(fmt.Errorf("ack for unsent seq %d (next %d): %w",
			pkt.Cum, c.sndNext, ErrStaleDuplicate))
		return
	}
	if pkt.Cum > c.sndBase {
		for ; c.sndBase < pkt.Cum; c.sndBase++ {
			out := c.outLocked(c.sndBase)
			c.spare = append(c.spare, out.buf)
			out.buf = nil
			c.sacked >>= 1
		}
		// The window opened: wake writers and the Close drain.
		c.cond.Broadcast()
	}
	// Rebase the ACK's bitmap (bit i: Cum+1+i) onto sndBase; an older,
	// reordered ACK has Cum below it. Bits past sndNext are ignored.
	var rel uint64
	if pkt.Cum == c.sndBase {
		rel = pkt.Bitmap << 1
	} else {
		rel = pkt.Bitmap >> (c.sndBase - pkt.Cum - 1)
	}
	if inflight := c.sndNext - c.sndBase; inflight < 64 {
		rel &= 1<<inflight - 1
	}
	fresh := rel &^ c.sacked
	if fresh == 0 {
		return
	}
	c.sacked |= fresh
	// Gap evidence. First sends go out in sequence order, so a missing
	// packet below the highest newly reported one whose latest
	// transmission predates that packet's first was overtaken on the
	// channel. The first transmission counts because an ACK cannot say
	// which copy arrived. dgGapRetransmit such reports fast-retransmit
	// the packet ahead of its timeout.
	top := uint32(63 - bits.LeadingZeros64(fresh))
	latest := c.outLocked(c.sndBase + top).first
	now := time.Now()
	for b := ^c.sacked & (1<<top - 1); b != 0; b &= b - 1 {
		out := c.outLocked(c.sndBase + uint32(bits.TrailingZeros64(b)))
		if out.stamp > latest {
			continue
		}
		if out.gapHits++; out.gapHits >= dgGapRetransmit {
			c.stats.FastRetransmits++
			c.sendOutLocked(out, now)
		}
	}
}

// retransmitLoop scans the send window and resends packets whose
// jittered RTO has elapsed, failing the flow once a packet exhausts
// its attempt budget. Each tick also flushes an ACK the receiver side
// still owes.
func (c *DGConn) retransmitLoop() {
	tick := c.cfg.RTO.Base / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 20*time.Millisecond {
		tick = 20 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-c.stopCh:
			return
		}
		c.mu.Lock()
		if c.stopped {
			c.mu.Unlock()
			return
		}
		if c.ackOwed > 0 {
			c.sendAckLocked()
		}
		now := time.Now()
		for seq := c.sndBase; seq < c.sndNext && c.err == nil; seq++ {
			out := c.outLocked(seq)
			if c.sackedLocked(seq) || now.Sub(out.lastSent) < c.cfg.RTO.Delay(out.attempts, c.rng) {
				continue
			}
			if out.attempts >= c.cfg.MaxRetransmits {
				c.failLocked(fmt.Errorf("seq %d unacked after %d attempts: %w",
					seq, out.attempts, ErrRetransmitExhausted))
				break
			}
			out.attempts++
			c.stats.Retransmits++
			c.sendOutLocked(out, now)
		}
		c.mu.Unlock()
	}
}

// failLocked records the terminal fault and halts the flow.
func (c *DGConn) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	c.stopLocked()
}

// stopLocked halts the machinery and releases the transport.
func (c *DGConn) stopLocked() {
	if c.stopped {
		return
	}
	if c.ackOwed > 0 && c.err == nil {
		c.sendAckLocked()
	}
	c.stopped = true
	// A stopped flow sends and reassembles nothing more; drop its
	// buffers now, since callers may keep the conn for its Stats.
	c.outs, c.rcvSlots, c.spare = nil, nil, nil
	close(c.stopCh)
	c.cond.Broadcast()
	c.doneOnce.Do(func() { go c.done() })
}

// Close sends a FIN occupying the next sequence slot and returns
// immediately; a background drain keeps retransmitting unacked packets
// (FIN included) until everything is acked or cfg.Linger elapses, then
// releases the socket. Reads and writes fail with net.ErrClosed as
// soon as Close is called.
func (c *DGConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.err == nil && !c.stopped && !c.finSent {
		c.finSent = true
		// The FIN ignores window occupancy: it must get a sequence even
		// when writers are stalled against a full window.
		c.transmitLocked(dgKindFin, nil)
	}
	if c.err != nil || c.stopped || c.sndBase == c.sndNext {
		c.stopLocked()
		c.mu.Unlock()
		return nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	go c.drainThenStop()
	return nil
}

// drainThenStop waits for the send window to empty (every packet
// acked) or the linger deadline, then halts the flow.
func (c *DGConn) drainThenStop() {
	deadline := time.Now().Add(c.cfg.Linger)
	timer := time.AfterFunc(c.cfg.Linger, c.cond.Broadcast)
	defer timer.Stop()
	c.mu.Lock()
	for c.err == nil && !c.stopped && c.sndBase != c.sndNext && time.Now().Before(deadline) {
		c.cond.Wait()
	}
	c.stopLocked()
	c.mu.Unlock()
}

func (c *DGConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

func (c *DGConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rdl = t
	if c.rdlTimer != nil {
		c.rdlTimer.Stop()
		c.rdlTimer = nil
	}
	if !t.IsZero() {
		d := max(time.Until(t), 0)
		c.rdlTimer = time.AfterFunc(d, c.cond.Broadcast)
	}
	c.cond.Broadcast()
	return nil
}

func (c *DGConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wdl = t
	if c.wdlTimer != nil {
		c.wdlTimer.Stop()
		c.wdlTimer = nil
	}
	if !t.IsZero() {
		d := max(time.Until(t), 0)
		c.wdlTimer = time.AfterFunc(d, c.cond.Broadcast)
	}
	c.cond.Broadcast()
	return nil
}

// DatagramListener accepts ARQ flows over one shared net.PacketConn,
// demultiplexing datagrams by source address. It implements
// net.Listener, so server.Serve runs over it unchanged.
type DatagramListener struct {
	pc  net.PacketConn
	cfg DatagramConfig

	mu      sync.Mutex
	conns   map[flowKey]*DGConn
	closed  bool
	acceptQ chan *DGConn
	closeCh chan struct{}
	once    sync.Once
}

// ListenDatagram wraps a packet socket (net.ListenPacket("udp", …), or
// a fault-injecting wrapper around one) in an ARQ flow demultiplexer.
func ListenDatagram(pc net.PacketConn, cfg DatagramConfig) *DatagramListener {
	cfg = cfg.withDefaults()
	l := &DatagramListener{
		pc:      pc,
		cfg:     cfg,
		conns:   make(map[flowKey]*DGConn),
		acceptQ: make(chan *DGConn, cfg.AcceptBacklog),
		closeCh: make(chan struct{}),
	}
	go l.demux()
	return l
}

// Accept returns the next new flow.
func (l *DatagramListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acceptQ:
		return c, nil
	case <-l.closeCh:
		return nil, net.ErrClosed
	}
}

// Addr returns the underlying socket's address.
func (l *DatagramListener) Addr() net.Addr { return l.pc.LocalAddr() }

// Close shuts the socket and fails every live flow.
func (l *DatagramListener) Close() error {
	l.mu.Lock()
	l.closed = true
	conns := make([]*DGConn, 0, len(l.conns))
	for _, c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	l.once.Do(func() { close(l.closeCh) })
	err := l.pc.Close()
	for _, c := range conns {
		c.mu.Lock()
		c.failLocked(net.ErrClosed)
		c.mu.Unlock()
	}
	return err
}

// demux is the single socket read loop: decode, route to the flow by
// source address, creating flows for new sources on valid DATA.
func (l *DatagramListener) demux() {
	buf := make([]byte, 64<<10)
	for {
		n, addr, err := l.pc.ReadFrom(buf)
		if err != nil {
			if l.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient socket errors (ICMP-borne, injected timeouts):
			// keep serving; reliability lives in the ARQ layer.
			continue
		}
		pkt, derr := decodeDatagram(buf[:n])
		if derr != nil {
			continue // corrupt datagrams drop silently, like loss
		}
		key := flowKeyOf(addr)
		l.mu.Lock()
		c := l.conns[key]
		if c == nil {
			// Only a DATA packet opens a flow: stray ACKs and FIN
			// retransmits from dead incarnations must not conjure
			// ghost connections.
			if l.closed || pkt.Kind != dgKindData || len(l.acceptQ) == cap(l.acceptQ) {
				l.mu.Unlock()
				continue
			}
			c = l.newFlowLocked(key, addr, pkt.Conn)
			l.acceptQ <- c
		}
		l.mu.Unlock()
		c.handlePacket(pkt)
	}
}

func (l *DatagramListener) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// flowKey identifies a flow by its peer's address: the AddrPort of a
// UDP peer, the String form of any other net.Addr.
type flowKey struct {
	ap   netip.AddrPort
	name string
}

func flowKeyOf(addr net.Addr) flowKey {
	if u, ok := addr.(*net.UDPAddr); ok {
		return flowKey{ap: u.AddrPort()}
	}
	return flowKey{name: addr.String()}
}

// newFlowLocked creates the server-side DGConn for a new source
// address, adopting the client's connection ID.
func (l *DatagramListener) newFlowLocked(key flowKey, addr net.Addr, connID uint32) *DGConn {
	cfg := l.cfg
	// Decorrelate per-flow jitter while keeping it derived from the
	// listener seed, for reproducible tests.
	cfg.Seed = l.cfg.Seed ^ int64(connID)
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	send := func(b []byte) { l.pc.WriteTo(b, addr) }
	done := func() {
		l.mu.Lock()
		if l.conns[key] != nil {
			delete(l.conns, key)
		}
		l.mu.Unlock()
	}
	c := newDGConn(cfg, connID, l.pc.LocalAddr(), addr, send, done)
	l.conns[key] = c
	return c
}

// NewDatagramClientConn runs the client half of an ARQ flow over an
// already-connected packet conn (one datagram per Read/Write) — the
// seam where tests and the streamer CLI insert fault-injecting
// wrappers.
func NewDatagramClientConn(pc net.Conn, cfg DatagramConfig) *DGConn {
	cfg = cfg.withDefaults()
	c := newDGConn(cfg, randomConnID(), pc.LocalAddr(), pc.RemoteAddr(),
		func(b []byte) { pc.Write(b) },
		func() { pc.Close() })
	go c.readLoop(pc)
	return c
}

// readLoop pumps the client socket into the flow until the socket
// closes (done() on stop) or errors persist past any plausible
// transient.
func (c *DGConn) readLoop(pc net.Conn) {
	buf := make([]byte, 64<<10)
	consecutive := 0
	for {
		n, err := pc.Read(buf)
		if err != nil {
			select {
			case <-c.stopCh:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Connected UDP surfaces ICMP unreachable as ECONNREFUSED:
			// transient while the server rebinds. Persistent errors
			// eventually fail the flow through retransmit exhaustion,
			// but cap the spin here too.
			if consecutive++; consecutive > 1000 {
				c.mu.Lock()
				c.failLocked(fmt.Errorf("datagram socket: %w", err))
				c.mu.Unlock()
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		consecutive = 0
		pkt, derr := decodeDatagram(buf[:n])
		if derr != nil {
			continue
		}
		c.handlePacket(pkt)
	}
}

// DialDatagram opens an ARQ flow to a UDP address.
func DialDatagram(addr string, cfg DatagramConfig) (*DGConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	return NewDatagramClientConn(pc, cfg), nil
}
