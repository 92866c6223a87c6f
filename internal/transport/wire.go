// Package transport carries a smoothed MPEG picture stream over a byte
// connection, pacing transmission at the per-picture rates chosen by the
// smoothing algorithm.
//
// The paper positions the algorithm inside "transport protocols for
// compressed video": the smoother calls notify(i, rate) to tell the
// transmitter the rate for picture i, and the transmitter drains the
// picture at that rate. This package implements that contract over any
// net.Conn (the tests use both net.Pipe and TCP loopback), with explicit
// rate-notification messages ahead of each rate change so a receiver (or
// a network resource manager) can track the sender's declared rate.
//
// Wire format (v2, chaos-hardened): every message is a CRC-framed
// record
//
//	kind (1) | seq (4) | body (fixed per kind) | crc32 (4)
//
// where crc32 is the IEEE checksum of kind|seq|body and seq is a
// per-connection, per-direction counter starting at zero. A picture
// frame's body additionally carries the CRC of its payload, which
// streams (paced) after the frame record. Corruption, truncation, and
// frame loss are therefore detected — never silently decoded — and
// classified (see ClassifyFault) so senders can reconnect and resume
// rather than abort.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"mpegsmooth/internal/mpeg"
)

// Message kinds on the wire.
const (
	kindRate     byte = 'R'
	kindPicture  byte = 'P'
	kindEnd      byte = 'E'
	kindHello    byte = 'H'
	kindVerdict  byte = 'V'
	kindResume   byte = 'M'
	kindRedirect byte = 'D'
)

// bodyLen maps a message kind to its fixed body length (the picture
// payload streams after the frame and is not part of the body).
func bodyLen(kind byte) (int, bool) {
	switch kind {
	case kindHello:
		return 43, true
	case kindVerdict:
		return 37, true
	case kindRate:
		return 12, true
	case kindPicture:
		return 13, true
	case kindResume:
		return 8, true
	case kindRedirect:
		return maxBodyLen, true
	case kindEnd:
		return 0, true
	}
	return 0, false
}

// maxRedirectAddr bounds the advertised address in a redirect frame;
// the body is fixed-size (length prefix plus zero-padded address) like
// every other kind.
const maxRedirectAddr = 128

// maxBodyLen is the largest fixed body of any kind, the redirect's.
const maxBodyLen = 10 + maxRedirectAddr

// MaxPictureBytes is the absolute wire-level bound on a picture payload;
// no cap may exceed it, and a peer announcing more is malformed.
const MaxPictureBytes = 16 << 20

// DefaultMaxPictureBytes is the default payload-size sanity cap (the
// largest legal picture in this codec is far smaller). A corrupted or
// malicious header announcing more is rejected before any allocation.
const DefaultMaxPictureBytes = 4 << 20

// ErrClosed reports an orderly end-of-stream message.
var ErrClosed = errors.New("transport: stream closed by sender")

// ErrCorrupt tags frames that failed the CRC, declared nonsense field
// values, or used an unknown kind: the bytes on the wire cannot be
// trusted, so the connection must be abandoned (and, for a resumable
// stream, re-established).
var ErrCorrupt = errors.New("transport: corrupt frame")

// ErrBadSeq tags a frame whose sequence number does not continue the
// connection's counter: a frame was lost, duplicated, or replayed.
var ErrBadSeq = errors.New("transport: sequence discontinuity")

// RateNotification announces the transmission rate for a picture:
// notify(i, rate) from the algorithm specification.
type RateNotification struct {
	Index int
	Rate  float64 // bits per second
}

// PictureFrame carries one coded picture.
type PictureFrame struct {
	Index   int
	Type    mpeg.PictureType
	Payload []byte
}

// StreamHello opens a stream session with a server that performs
// admission control (smoothd): the sender declares its encoding
// parameters and, crucially, the peak rate of its smoothed schedule —
// the traffic descriptor the admission controller reserves against the
// shared link, in the spirit of the usage-parameter contract a Policer
// enforces. A receiver that does not perform admission (plain Receive)
// records the hello and carries on.
type StreamHello struct {
	// Tau is the picture period in seconds.
	Tau float64
	// GOP is the repeating picture-type pattern.
	GOP mpeg.GOP
	// K and D are the smoothing parameters the sender encoded with.
	K int
	D float64
	// Pictures is the expected stream length (0 = unknown/live).
	Pictures int
	// PeakRate is the declared maximum smoothed transmission rate in
	// bits/second; admission reserves this much link capacity.
	PeakRate float64
	// Nonce is a crypto-random client-chosen session identifier. A
	// sender that never received its admission verdict (lost or
	// corrupted in flight) redials and repeats the hello with the same
	// nonce; the server deduplicates by nonce and reattaches the sender
	// to the existing reservation instead of double-reserving — hellos
	// become idempotent the way resume tokens make pictures idempotent.
	// Zero disables deduplication (the pre-nonce behaviour).
	Nonce uint64
	// Integrity names the prefix-verification hash for this session:
	// IntegrityFNV (zero, the default) or IntegrityHMAC. The server must
	// hold the matching key for IntegrityHMAC; a mode it cannot serve is
	// rejected malformed.
	Integrity IntegrityMode
}

// Validate checks the hello's fields for wire-level sanity.
func (h StreamHello) Validate() error {
	if h.Tau <= 0 || math.IsNaN(h.Tau) || math.IsInf(h.Tau, 0) {
		return fmt.Errorf("transport: hello picture period %v", h.Tau)
	}
	if err := h.GOP.Validate(); err != nil {
		return fmt.Errorf("transport: hello %w", err)
	}
	if h.K < 0 {
		return fmt.Errorf("transport: hello K = %d", h.K)
	}
	if h.D <= 0 || math.IsNaN(h.D) || math.IsInf(h.D, 0) {
		return fmt.Errorf("transport: hello delay bound %v", h.D)
	}
	if h.Pictures < 0 {
		return fmt.Errorf("transport: hello pictures %d", h.Pictures)
	}
	if h.PeakRate <= 0 || math.IsNaN(h.PeakRate) || math.IsInf(h.PeakRate, 0) {
		return fmt.Errorf("transport: hello peak rate %v", h.PeakRate)
	}
	if !h.Integrity.Valid() {
		return fmt.Errorf("transport: hello integrity mode %d", h.Integrity)
	}
	return nil
}

// StreamResume reopens a disconnected stream session: the sender
// presents the resume token the admission verdict issued, and the
// server answers with another verdict whose NextIndex names the first
// picture it has not yet received — the replay point that makes a flaky
// link lossless.
type StreamResume struct {
	Token uint64
}

// Redirect steers a misdirected hello or resume to the shard that owns
// its session key: in a sharded fleet, stream placement follows a
// consistent-hash ring over hello nonces and resume tokens, and a
// server that does not own the key answers with the owner's stream
// address instead of a verdict. The sender redials there and repeats
// its handshake.
type Redirect struct {
	// Addr is the owning shard's stream listen address.
	Addr string
	// Epoch is the issuing primary's fencing term (see Verdict.Epoch).
	Epoch uint64
}

// VerdictCode classifies an admission decision.
type VerdictCode byte

// Admission verdict codes.
const (
	// Admitted: the stream's declared peak rate has been reserved on
	// the shared link; the sender may begin streaming.
	Admitted VerdictCode = iota
	// RejectedCapacity: the declared peak exceeds the link capacity
	// still available.
	RejectedCapacity
	// RejectedMalformed: the hello was missing, invalid, or named an
	// unknown resume token.
	RejectedMalformed
	// RejectedBusy: the server is at its concurrent-stream limit or
	// shutting down.
	RejectedBusy
	// AlreadyComplete: the resume token names a stream the server has
	// already accepted in full — the sender's completion ack was lost,
	// not the stream. PrefixFNV carries the final payload hash so the
	// sender can verify byte-exact delivery before reporting success.
	AlreadyComplete
)

// String names the verdict code.
func (c VerdictCode) String() string {
	switch c {
	case Admitted:
		return "admitted"
	case RejectedCapacity:
		return "rejected-capacity"
	case RejectedMalformed:
		return "rejected-malformed"
	case RejectedBusy:
		return "rejected-busy"
	case AlreadyComplete:
		return "already-complete"
	}
	return fmt.Sprintf("VerdictCode(%d)", byte(c))
}

// Verdict is the server's admission answer to a StreamHello or a
// StreamResume.
type Verdict struct {
	Code VerdictCode
	// Available is the link capacity still unreserved (bits/second) at
	// decision time — on rejection, what the sender would have to fit
	// under to be admitted.
	Available float64
	// ResumeToken, when nonzero on an admitted verdict, lets the sender
	// reopen this stream after a disconnect (see StreamResume). Zero
	// means the server does not support resumption.
	ResumeToken uint64
	// NextIndex is the first picture index the server has not yet
	// received — meaningful on the verdict answering a StreamResume,
	// where it is the sender's replay point.
	NextIndex int
	// PrefixFNV is the server's running FNV-1a hash over every payload
	// it has accepted so far, in index order — the hash of the stream
	// prefix [0, NextIndex). On an admitted verdict the sender verifies
	// its own prefix hash against it before (re)playing anything, so
	// divergent state is detected up front (ErrDiverged) instead of
	// shipped. On an AlreadyComplete verdict it is the finished stream's
	// final hash.
	PrefixFNV uint64
	// Epoch is the issuing primary's fencing term. A clustered server
	// stamps every verdict with the epoch it promoted at; a sender that
	// has already seen a higher epoch treats this verdict as coming
	// from a deposed primary and retries elsewhere rather than act on
	// stale authority. Zero means the server is unclustered (or
	// predates fencing) and the field carries no meaning.
	Epoch uint64
}

// IsAdmitted reports whether the stream may proceed.
func (v Verdict) IsAdmitted() bool { return v.Code == Admitted }

// deadlineWriter is the write-deadline surface of net.Conn.
type deadlineWriter interface {
	SetWriteDeadline(time.Time) error
}

// deadlineReader is the read-deadline surface of net.Conn (net.Pipe
// supports it too); any other reader gets no deadline.
type deadlineReader interface {
	SetReadDeadline(time.Time) error
}

// FrameWriter frames outbound messages with a CRC32 checksum and a
// per-connection sequence number. One FrameWriter must own a
// connection's write side for the whole session — the handshake and the
// stream share its counter.
type FrameWriter struct {
	w   io.Writer
	d   deadlineWriter
	seq uint32
	// WriteTimeout, when nonzero and the underlying writer supports
	// write deadlines, bounds every frame and payload-chunk write so a
	// dead or stalled receiver cannot wedge the sender goroutine. It is
	// re-armed per write, mirroring Receiver.ReadTimeout.
	WriteTimeout time.Duration
	// MaxPayload caps the picture payload size this writer will frame
	// (default DefaultMaxPictureBytes, never above MaxPictureBytes).
	MaxPayload int
	// scratch is the reused frame-encoding buffer: every body is fixed
	// and small, and the frame is fully written before writeFrame
	// returns, so one buffer serves the writer's whole session.
	scratch []byte
}

// NewFrameWriter wraps a connection's write side. If w supports
// SetWriteDeadline (net.Conn does), WriteTimeout can bound each write.
func NewFrameWriter(w io.Writer) *FrameWriter {
	fw := &FrameWriter{w: w}
	if d, ok := w.(deadlineWriter); ok {
		fw.d = d
	}
	return fw
}

func (fw *FrameWriter) maxPayload() int {
	if fw.MaxPayload > 0 && fw.MaxPayload <= MaxPictureBytes {
		return fw.MaxPayload
	}
	return DefaultMaxPictureBytes
}

// write arms the per-write deadline (when configured) and writes p.
func (fw *FrameWriter) write(p []byte) error {
	if fw.d != nil && fw.WriteTimeout > 0 {
		if err := fw.d.SetWriteDeadline(time.Now().Add(fw.WriteTimeout)); err != nil {
			return fmt.Errorf("transport: arming write deadline: %w", err)
		}
	}
	_, err := fw.w.Write(p)
	return err
}

// appendFrame appends the frame kind|seq|body|crc to buf.
func appendFrame(buf []byte, kind byte, seq uint32, body []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, seq)
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// writeFrame emits kind|seq|body|crc and advances the sequence counter.
func (fw *FrameWriter) writeFrame(kind byte, body []byte) error {
	fw.scratch = appendFrame(fw.scratch[:0], kind, fw.seq, body)
	if err := fw.write(fw.scratch); err != nil {
		return err
	}
	fw.seq++
	return nil
}

// WriteHello writes a stream-opening hello.
func (fw *FrameWriter) WriteHello(h StreamHello) error {
	if err := h.Validate(); err != nil {
		return err
	}
	if h.GOP.N > math.MaxUint16 || h.GOP.M > math.MaxUint16 ||
		h.K > math.MaxUint16 || h.Pictures > math.MaxUint32 {
		return fmt.Errorf("transport: hello field out of wire range")
	}
	var body [43]byte
	binary.BigEndian.PutUint64(body[0:8], math.Float64bits(h.Tau))
	binary.BigEndian.PutUint16(body[8:10], uint16(h.GOP.N))
	binary.BigEndian.PutUint16(body[10:12], uint16(h.GOP.M))
	binary.BigEndian.PutUint16(body[12:14], uint16(h.K))
	binary.BigEndian.PutUint64(body[14:22], math.Float64bits(h.D))
	binary.BigEndian.PutUint32(body[22:26], uint32(h.Pictures))
	binary.BigEndian.PutUint64(body[26:34], math.Float64bits(h.PeakRate))
	binary.BigEndian.PutUint64(body[34:42], h.Nonce)
	body[42] = byte(h.Integrity)
	return fw.writeFrame(kindHello, body[:])
}

// WriteResume writes a stream-reopening resume request.
func (fw *FrameWriter) WriteResume(r StreamResume) error {
	if r.Token == 0 {
		return fmt.Errorf("transport: zero resume token")
	}
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], r.Token)
	return fw.writeFrame(kindResume, body[:])
}

// WriteVerdict writes an admission verdict.
func (fw *FrameWriter) WriteVerdict(v Verdict) error {
	if v.Code > AlreadyComplete {
		return fmt.Errorf("transport: invalid verdict code %d", v.Code)
	}
	if math.IsNaN(v.Available) || math.IsInf(v.Available, 0) || v.Available < 0 {
		return fmt.Errorf("transport: invalid verdict capacity %v", v.Available)
	}
	if v.NextIndex < 0 || v.NextIndex > math.MaxUint32 {
		return fmt.Errorf("transport: verdict next index %d out of range", v.NextIndex)
	}
	var body [37]byte
	body[0] = byte(v.Code)
	binary.BigEndian.PutUint64(body[1:9], math.Float64bits(v.Available))
	binary.BigEndian.PutUint64(body[9:17], v.ResumeToken)
	binary.BigEndian.PutUint32(body[17:21], uint32(v.NextIndex))
	binary.BigEndian.PutUint64(body[21:29], v.PrefixFNV)
	binary.BigEndian.PutUint64(body[29:37], v.Epoch)
	return fw.writeFrame(kindVerdict, body[:])
}

// WriteRedirect writes a shard redirect: the answer to a hello or
// resume whose session key another shard owns.
func (fw *FrameWriter) WriteRedirect(rd Redirect) error {
	if rd.Addr == "" || len(rd.Addr) > maxRedirectAddr {
		return fmt.Errorf("transport: redirect address %q out of range", rd.Addr)
	}
	var body [10 + maxRedirectAddr]byte
	binary.BigEndian.PutUint64(body[0:8], rd.Epoch)
	binary.BigEndian.PutUint16(body[8:10], uint16(len(rd.Addr)))
	copy(body[10:], rd.Addr)
	return fw.writeFrame(kindRedirect, body[:])
}

// WriteRate writes a rate notification.
func (fw *FrameWriter) WriteRate(n RateNotification) error {
	body, err := rateBody(n)
	if err != nil {
		return err
	}
	return fw.writeFrame(kindRate, body[:])
}

// rateBody validates and encodes a rate notification's frame body.
func rateBody(n RateNotification) (body [12]byte, err error) {
	if n.Index < 0 || n.Index > math.MaxUint32 {
		return body, fmt.Errorf("transport: picture index %d out of range", n.Index)
	}
	if n.Rate <= 0 || math.IsNaN(n.Rate) || math.IsInf(n.Rate, 0) {
		return body, fmt.Errorf("transport: invalid rate %v", n.Rate)
	}
	binary.BigEndian.PutUint32(body[0:4], uint32(n.Index))
	binary.BigEndian.PutUint64(body[4:12], math.Float64bits(n.Rate))
	return body, nil
}

// WritePictureHeader writes the header frame of a picture, carrying the
// payload's size and CRC32; the caller streams the payload bytes
// (paced) immediately after via WriteChunk.
func (fw *FrameWriter) WritePictureHeader(index int, t mpeg.PictureType, payload []byte) error {
	body, err := fw.pictureBody(index, t, payload)
	if err != nil {
		return err
	}
	return fw.writeFrame(kindPicture, body[:])
}

// pictureBody validates and encodes a picture header's frame body.
func (fw *FrameWriter) pictureBody(index int, t mpeg.PictureType, payload []byte) (body [13]byte, err error) {
	if index < 0 || index > math.MaxUint32 {
		return body, fmt.Errorf("transport: picture index %d out of range", index)
	}
	if len(payload) == 0 || len(payload) > fw.maxPayload() {
		return body, fmt.Errorf("transport: picture size %d out of range (cap %d)", len(payload), fw.maxPayload())
	}
	binary.BigEndian.PutUint32(body[0:4], uint32(index))
	body[4] = byte(t)
	binary.BigEndian.PutUint32(body[5:9], uint32(len(payload)))
	binary.BigEndian.PutUint32(body[9:13], crc32.ChecksumIEEE(payload))
	return body, nil
}

// WriteChunk writes raw payload bytes under the configured write
// deadline; the pacing loop calls it once per chunk.
func (fw *FrameWriter) WriteChunk(p []byte) error {
	return fw.write(p)
}

// openingBufs holds the buffers writePicture assembles a picture's
// opening write in. They are chunk-sized, so they are shared by every
// FrameWriter in the process rather than grown once per connection.
var openingBufs BufferPool

// openingOverhead is the framing writePicture adds ahead of the first
// chunk: a rate notification frame and a picture header frame.
const openingOverhead = 2*(1+4+4) + 12 + 13

// writePicture opens a picture in one write: the rate notification
// (when rate is non-nil), the picture's header frame, and its first
// chunk payload[:first]. The bytes are exactly those WriteRate,
// WritePictureHeader and WriteChunk(payload[:first]) would write one
// call each, so a receiver cannot tell the two apart; the saving is the
// syscalls (and, over a datagram transport, the packets) of the two
// small control frames. The remaining payload follows via WriteChunk.
func (fw *FrameWriter) writePicture(rate *RateNotification, index int, t mpeg.PictureType, payload []byte, first int) error {
	opening := openingBufs.Get(openingOverhead + first)
	defer openingBufs.Put(opening)
	buf, seq := opening[:0], fw.seq
	if rate != nil {
		body, err := rateBody(*rate)
		if err != nil {
			return err
		}
		buf = appendFrame(buf, kindRate, seq, body[:])
		seq++
	}
	body, err := fw.pictureBody(index, t, payload)
	if err != nil {
		return err
	}
	buf = appendFrame(buf, kindPicture, seq, body[:])
	buf = append(buf, payload[:first]...)
	if err := fw.write(buf); err != nil {
		return err
	}
	fw.seq = seq + 1
	return nil
}

// WriteEnd writes the orderly end-of-stream marker.
func (fw *FrameWriter) WriteEnd() error {
	return fw.writeFrame(kindEnd, nil)
}

// FrameReader unframes and verifies inbound messages: CRC, sequence
// continuity, field sanity, and the payload-size cap. One FrameReader
// must own a connection's read side for the whole session.
type FrameReader struct {
	r   io.Reader
	d   deadlineReader
	seq uint32
	// MaxPayload caps the declared picture payload size this reader
	// will allocate for (default DefaultMaxPictureBytes, never above
	// MaxPictureBytes). A frame announcing more is corrupt.
	MaxPayload int
	// Pool, when set, opts the reader into allocation-free decoding:
	// picture payloads come from the pool (the consumer calls Put once
	// it is done with a payload), and the *PictureFrame and
	// *RateNotification values ReadMessage returns are reused — they are
	// valid only until the next ReadMessage call. Leave nil for the
	// allocate-per-message behaviour, where every returned value and
	// payload is caller-owned.
	Pool *BufferPool
	// head and rest are the frame-header and body+crc read buffers.
	// Bodies are fixed and small, and decode never retains body bytes
	// (all fields are value copies), so one pair serves the reader's
	// whole session. A local array would escape through the io.ReadFull
	// interface call and cost one heap allocation per frame; as fields
	// they ride the reader's own allocation.
	head [5]byte
	rest [maxBodyLen + 4]byte
	pic  PictureFrame
	rate RateNotification
}

// NewFrameReader wraps a connection's read side.
func NewFrameReader(r io.Reader) *FrameReader {
	fr := &FrameReader{r: r}
	if d, ok := r.(deadlineReader); ok {
		fr.d = d
	}
	return fr
}

// frameReadBufSize is the buffer NewFrameReaderBuffered puts in front
// of the connection: large enough to hold a burst of headers and small
// payloads, small enough to be irrelevant per connection.
const frameReadBufSize = 32 << 10

// NewFrameReaderBuffered wraps a connection's read side in a buffer so
// framing reads (the 1-byte kind probe, the 4-byte header remainder,
// the CRC trailer) hit memory instead of the kernel — on the ingest
// hot path this removes two to three read syscalls per frame. Read
// deadlines still bind: deadline control stays on the connection, and
// the buffer only fills from reads the deadline governs. The reader
// owns the connection's read side either way; nothing else may read
// from conn once it is handed here.
func NewFrameReaderBuffered(conn io.Reader) *FrameReader {
	fr := &FrameReader{r: bufio.NewReaderSize(conn, frameReadBufSize)}
	if d, ok := conn.(deadlineReader); ok {
		fr.d = d
	}
	return fr
}

func (fr *FrameReader) maxPayload() int {
	if fr.MaxPayload > 0 && fr.MaxPayload <= MaxPictureBytes {
		return fr.MaxPayload
	}
	return DefaultMaxPictureBytes
}

// ReadMessage reads and verifies the next message. It returns a
// *StreamHello, a *StreamResume, a *Verdict, a *Redirect, a
// *RateNotification, or a *PictureFrame (with the payload fully read
// and CRC-checked), or ErrClosed on the end marker. Frames that fail verification return
// errors wrapping ErrCorrupt or ErrBadSeq.
func (fr *FrameReader) ReadMessage() (any, error) {
	head := fr.head[:]
	if _, err := io.ReadFull(fr.r, head[:1]); err != nil {
		return nil, err
	}
	n, known := bodyLen(head[0])
	if !known {
		return nil, fmt.Errorf("%w: unknown message kind %#02x", ErrCorrupt, head[0])
	}
	if _, err := io.ReadFull(fr.r, head[1:]); err != nil {
		return nil, fmt.Errorf("transport: short frame header: %w", err)
	}
	rest := fr.rest[:n+4]
	if _, err := io.ReadFull(fr.r, rest); err != nil {
		return nil, fmt.Errorf("transport: short frame body: %w", err)
	}
	body := rest[:n]
	sum := crc32.ChecksumIEEE(head[:])
	sum = crc32.Update(sum, crc32.IEEETable, body)
	if got := binary.BigEndian.Uint32(rest[n:]); got != sum {
		return nil, fmt.Errorf("%w: %c frame crc %08x, want %08x", ErrCorrupt, head[0], got, sum)
	}
	if seq := binary.BigEndian.Uint32(head[1:5]); seq != fr.seq {
		return nil, fmt.Errorf("%w: frame seq %d, want %d", ErrBadSeq, seq, fr.seq)
	}
	fr.seq++
	return fr.decode(head[0], body)
}

// decode interprets a CRC- and sequence-verified frame body.
func (fr *FrameReader) decode(kind byte, body []byte) (any, error) {
	switch kind {
	case kindHello:
		h := StreamHello{
			Tau: math.Float64frombits(binary.BigEndian.Uint64(body[0:8])),
			GOP: mpeg.GOP{
				N: int(binary.BigEndian.Uint16(body[8:10])),
				M: int(binary.BigEndian.Uint16(body[10:12])),
			},
			K:         int(binary.BigEndian.Uint16(body[12:14])),
			D:         math.Float64frombits(binary.BigEndian.Uint64(body[14:22])),
			Pictures:  int(binary.BigEndian.Uint32(body[22:26])),
			PeakRate:  math.Float64frombits(binary.BigEndian.Uint64(body[26:34])),
			Nonce:     binary.BigEndian.Uint64(body[34:42]),
			Integrity: IntegrityMode(body[42]),
		}
		if err := h.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return &h, nil
	case kindResume:
		token := binary.BigEndian.Uint64(body)
		if token == 0 {
			return nil, fmt.Errorf("%w: zero resume token", ErrCorrupt)
		}
		return &StreamResume{Token: token}, nil
	case kindVerdict:
		v := Verdict{
			Code:        VerdictCode(body[0]),
			Available:   math.Float64frombits(binary.BigEndian.Uint64(body[1:9])),
			ResumeToken: binary.BigEndian.Uint64(body[9:17]),
			NextIndex:   int(binary.BigEndian.Uint32(body[17:21])),
			PrefixFNV:   binary.BigEndian.Uint64(body[21:29]),
			Epoch:       binary.BigEndian.Uint64(body[29:37]),
		}
		if v.Code > AlreadyComplete {
			return nil, fmt.Errorf("%w: invalid verdict code %d", ErrCorrupt, body[0])
		}
		if math.IsNaN(v.Available) || math.IsInf(v.Available, 0) || v.Available < 0 {
			return nil, fmt.Errorf("%w: invalid verdict capacity %v", ErrCorrupt, v.Available)
		}
		return &v, nil
	case kindRedirect:
		epoch := binary.BigEndian.Uint64(body[0:8])
		n := int(binary.BigEndian.Uint16(body[8:10]))
		if n == 0 || n > maxRedirectAddr {
			return nil, fmt.Errorf("%w: redirect address length %d", ErrCorrupt, n)
		}
		return &Redirect{Addr: string(body[10 : 10+n]), Epoch: epoch}, nil
	case kindRate:
		rate := math.Float64frombits(binary.BigEndian.Uint64(body[4:12]))
		if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
			return nil, fmt.Errorf("%w: peer sent invalid rate %v", ErrCorrupt, rate)
		}
		if fr.Pool != nil {
			fr.rate = RateNotification{
				Index: int(binary.BigEndian.Uint32(body[0:4])),
				Rate:  rate,
			}
			return &fr.rate, nil
		}
		return &RateNotification{
			Index: int(binary.BigEndian.Uint32(body[0:4])),
			Rate:  rate,
		}, nil
	case kindPicture:
		size := binary.BigEndian.Uint32(body[5:9])
		if size == 0 || int64(size) > int64(fr.maxPayload()) {
			return nil, fmt.Errorf("%w: peer announced picture of %d bytes (cap %d)",
				ErrCorrupt, size, fr.maxPayload())
		}
		ty := mpeg.PictureType(body[4])
		if ty > mpeg.TypeB {
			return nil, fmt.Errorf("%w: invalid picture type %d", ErrCorrupt, body[4])
		}
		var payload []byte
		if fr.Pool != nil {
			payload = fr.Pool.Get(int(size))
		} else {
			payload = make([]byte, size)
		}
		if _, err := io.ReadFull(fr.r, payload); err != nil {
			if fr.Pool != nil {
				fr.Pool.Put(payload)
			}
			return nil, fmt.Errorf("transport: truncated picture payload: %w", err)
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(body[9:13]); got != want {
			if fr.Pool != nil {
				fr.Pool.Put(payload)
			}
			return nil, fmt.Errorf("%w: payload crc %08x, want %08x", ErrCorrupt, got, want)
		}
		if fr.Pool != nil {
			fr.pic = PictureFrame{
				Index:   int(binary.BigEndian.Uint32(body[0:4])),
				Type:    ty,
				Payload: payload,
			}
			return &fr.pic, nil
		}
		return &PictureFrame{
			Index:   int(binary.BigEndian.Uint32(body[0:4])),
			Type:    ty,
			Payload: payload,
		}, nil
	case kindEnd:
		return nil, ErrClosed
	}
	return nil, fmt.Errorf("%w: unknown message kind %#02x", ErrCorrupt, kind)
}

// ReadMessageTimeout arms a read deadline covering the whole next
// message — header and payload — before reading it, so a sender that
// stalls mid-picture cannot wedge the reader forever. The deadline is
// re-armed per call, never accumulated across a session. A zero
// timeout, or a reader without SetReadDeadline, reads (and explicitly
// clears any previous deadline) without one.
func (fr *FrameReader) ReadMessageTimeout(timeout time.Duration) (any, error) {
	if fr.d != nil {
		if timeout > 0 {
			if err := fr.d.SetReadDeadline(time.Now().Add(timeout)); err != nil {
				return nil, fmt.Errorf("transport: arming read deadline: %w", err)
			}
		} else if err := fr.d.SetReadDeadline(time.Time{}); err != nil {
			return nil, fmt.Errorf("transport: clearing read deadline: %w", err)
		}
	}
	return fr.ReadMessage()
}

// ReadVerdict reads an admission verdict — the one message that flows
// server→sender, immediately after a hello or resume request.
func (fr *FrameReader) ReadVerdict() (Verdict, error) {
	return fr.ReadVerdictTimeout(0)
}

// ReadVerdictTimeout reads an admission verdict under a read deadline.
func (fr *FrameReader) ReadVerdictTimeout(timeout time.Duration) (Verdict, error) {
	msg, err := fr.ReadMessageTimeout(timeout)
	if err != nil {
		return Verdict{}, err
	}
	v, ok := msg.(*Verdict)
	if !ok {
		return Verdict{}, fmt.Errorf("%w: expected verdict, got %T", ErrCorrupt, msg)
	}
	return *v, nil
}
