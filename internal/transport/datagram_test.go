package transport

import (
	"bytes"
	"errors"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/faultnet"
)

// TestDatagramCodecRoundTrip: every packet kind encodes and decodes to
// itself.
func TestDatagramCodecRoundTrip(t *testing.T) {
	data := appendDataPacket(nil, dgKindData, 0xDEADBEEF, 42, []byte("picture bytes"))
	p, err := decodeDatagram(data)
	if err != nil {
		t.Fatalf("decode data: %v", err)
	}
	if p.Kind != dgKindData || p.Conn != 0xDEADBEEF || p.Seq != 42 || string(p.Payload) != "picture bytes" {
		t.Fatalf("data round trip: %+v", p)
	}

	fin := appendDataPacket(nil, dgKindFin, 7, 99, nil)
	p, err = decodeDatagram(fin)
	if err != nil {
		t.Fatalf("decode fin: %v", err)
	}
	if p.Kind != dgKindFin || p.Conn != 7 || p.Seq != 99 || len(p.Payload) != 0 {
		t.Fatalf("fin round trip: %+v", p)
	}

	ack := appendAckPacket(nil, 7, 1000, 0xA5A5)
	p, err = decodeDatagram(ack)
	if err != nil {
		t.Fatalf("decode ack: %v", err)
	}
	if p.Kind != dgKindAck || p.Conn != 7 || p.Cum != 1000 || p.Bitmap != 0xA5A5 {
		t.Fatalf("ack round trip: %+v", p)
	}
}

// TestDatagramCodecRejectsCorrupt: every malformation decodes to an
// ErrCorrupt-classed error, never a panic or a bogus packet.
func TestDatagramCodecRejectsCorrupt(t *testing.T) {
	good := appendDataPacket(nil, dgKindData, 1, 2, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF
	badLen := append([]byte(nil), good...)
	badLen[9] ^= 0x01 // length field no longer matches the datagram
	finPayload := appendDataPacket(nil, dgKindData, 1, 2, []byte("x"))
	finPayload[0] = dgKindFin // fin must carry no payload
	// Re-CRC so only the fin-with-payload rule fails.
	finPayload = appendDataPacket(finPayload[:0], dgKindFin, 1, 2, nil)
	finPayload = append(finPayload[:dgDataHeader-2], 0, 1, 'x', 0, 0, 0, 0)

	cases := [][]byte{
		nil,
		{},
		{dgKindData},
		good[:dgDataHeader], // truncated before CRC
		good[:len(good)-1],  // truncated CRC
		append(good, 0x00),  // trailing byte
		flipped,             // CRC flip
		badLen,              // length/datagram mismatch
		{'z', 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown kind
		appendAckPacket(nil, 1, 2, 3)[:dgAckSize-1],     // truncated ack
	}
	for i, buf := range cases {
		if _, err := decodeDatagram(buf); err == nil {
			t.Errorf("case %d: corrupt datagram decoded cleanly", i)
		} else if ClassifyFault(err) != FaultCorrupt {
			t.Errorf("case %d: classified %s, want corrupt", i, ClassifyFault(err))
		}
	}
}

// startEchoListener runs a datagram listener whose accepted flows echo
// every byte back until EOF.
func startEchoListener(t *testing.T, cfg DatagramConfig) *DatagramListener {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen udp: %v", err)
	}
	l := ListenDatagram(pc, cfg)
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(conn, conn)
				conn.Close()
			}()
		}
	}()
	return l
}

// TestDatagramConnEcho: bytes written over the ARQ flow come back
// intact over clean UDP loopback.
func TestDatagramConnEcho(t *testing.T) {
	l := startEchoListener(t, DatagramConfig{Seed: 11})
	c, err := DialDatagram(l.Addr().String(), DatagramConfig{Seed: 12})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	msg := bytes.Repeat([]byte("smooth"), 4096) // crosses several MTUs
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if !bytes.Equal(msg, got) {
		t.Fatal("echo differs from sent bytes")
	}
}

// lossyConn deterministically mangles the client→server packet stream:
// drops, duplicates, and displaces packets by index, exercising every
// ARQ recovery path without randomness.
type lossyConn struct {
	net.Conn
	mu   sync.Mutex
	n    int
	held []byte
}

func (c *lossyConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.n
	c.n++
	switch {
	case i%5 == 2: // drop
		return len(b), nil
	case i%7 == 3: // duplicate
		c.Conn.Write(b)
		c.Conn.Write(b)
		return len(b), nil
	case i%11 == 4 && c.held == nil: // hold for reordering
		c.held = append([]byte(nil), b...)
		return len(b), nil
	}
	n, err := c.Conn.Write(b)
	if c.held != nil {
		c.Conn.Write(c.held) // emit the held packet one slot late
		c.held = nil
	}
	return n, err
}

// TestDatagramConnLossy: a flow over a dropping/duplicating/reordering
// channel still delivers a byte-exact stream, and the ARQ counters show
// the machinery actually fired.
func TestDatagramConnLossy(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen udp: %v", err)
	}
	l := ListenDatagram(pc, DatagramConfig{Seed: 21})
	defer l.Close()

	type result struct {
		sum uint64
		n   int64
	}
	srvDone := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		h := fnv.New64a()
		n, _ := io.Copy(h, conn)
		conn.Close()
		srvDone <- result{h.Sum64(), n}
	}()

	raddr, _ := net.ResolveUDPAddr("udp", l.Addr().String())
	udp, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatalf("dial udp: %v", err)
	}
	cfg := DatagramConfig{
		Seed: 22,
		MTU:  512,
		RTO:  Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}
	c := NewDatagramClientConn(&lossyConn{Conn: udp}, cfg)

	payload := make([]byte, 96<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	want := fnv.New64a()
	want.Write(payload)

	c.SetWriteDeadline(time.Now().Add(20 * time.Second))
	for off := 0; off < len(payload); off += 1024 {
		end := min(off+1024, len(payload))
		if _, err := c.Write(payload[off:end]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	stats := c.Stats()
	c.Close() // FIN: server's io.Copy ends at EOF

	select {
	case got := <-srvDone:
		if got.n != int64(len(payload)) {
			t.Fatalf("server received %d bytes, want %d", got.n, len(payload))
		}
		if got.sum != want.Sum64() {
			t.Fatal("delivered bytes differ from sent bytes")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("transfer did not complete")
	}
	if stats.Retransmits+stats.FastRetransmits == 0 {
		t.Error("lossy channel produced no retransmissions")
	}
	t.Logf("stats: %+v", stats)
}

// blackholeAddr/blackholeConn: a packet conn that discards every write
// and never delivers a read — the shape of a totally dead channel.
type blackholeAddr struct{}

func (blackholeAddr) Network() string { return "udp" }
func (blackholeAddr) String() string  { return "blackhole" }

type blackholeConn struct {
	closed    chan struct{}
	closeOnce sync.Once
}

func newBlackholeConn() *blackholeConn { return &blackholeConn{closed: make(chan struct{})} }

func (c *blackholeConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}
func (c *blackholeConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *blackholeConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
func (c *blackholeConn) LocalAddr() net.Addr              { return blackholeAddr{} }
func (c *blackholeConn) RemoteAddr() net.Addr             { return blackholeAddr{} }
func (c *blackholeConn) SetDeadline(time.Time) error      { return nil }
func (c *blackholeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *blackholeConn) SetWriteDeadline(time.Time) error { return nil }

// TestDatagramRetransmitExhausted: a dead channel fails the flow with
// the retransmit-exhausted class after the attempt budget, not a hang.
func TestDatagramRetransmitExhausted(t *testing.T) {
	cfg := DatagramConfig{
		Seed:           31,
		MTU:            64,
		Window:         4,
		RTO:            Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		MaxRetransmits: 3,
	}
	c := NewDatagramClientConn(newBlackholeConn(), cfg)
	defer c.Close()

	c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	var err error
	for i := 0; i < 1000 && err == nil; i++ {
		_, err = c.Write(make([]byte, 256)) // overfill the window
	}
	if err == nil {
		t.Fatal("write into a black hole never failed")
	}
	if !errors.Is(err, ErrRetransmitExhausted) {
		t.Fatalf("got %v, want ErrRetransmitExhausted", err)
	}
	if ClassifyFault(err) != FaultRetransmitExhausted {
		t.Fatalf("classified %s, want retransmit-exhausted", ClassifyFault(err))
	}
}

// TestDatagramReorderOverflow: a sequence displaced beyond the bounded
// reassembly window tears the flow down with the reorder-overflow
// class.
func TestDatagramReorderOverflow(t *testing.T) {
	c := NewDatagramClientConn(newBlackholeConn(), DatagramConfig{Seed: 41})
	defer c.Close()

	c.handlePacket(dgPacket{Kind: dgKindData, Conn: c.ConnID(), Seq: dgReassemblyWindow, Payload: []byte("x")})
	_, err := c.Read(make([]byte, 1))
	if !errors.Is(err, ErrReorderOverflow) {
		t.Fatalf("got %v, want ErrReorderOverflow", err)
	}
	if ClassifyFault(err) != FaultReorderOverflow {
		t.Fatalf("classified %s, want reorder-overflow", ClassifyFault(err))
	}
}

// TestDatagramStaleAck: an acknowledgement for sequences never sent —
// stale-incarnation traffic past the ID check — fails the flow with
// the stale-duplicate class.
func TestDatagramStaleAck(t *testing.T) {
	c := NewDatagramClientConn(newBlackholeConn(), DatagramConfig{Seed: 51})
	defer c.Close()

	c.handlePacket(dgPacket{Kind: dgKindAck, Conn: c.ConnID(), Cum: 5})
	_, err := c.Write([]byte("x"))
	if !errors.Is(err, ErrStaleDuplicate) {
		t.Fatalf("got %v, want ErrStaleDuplicate", err)
	}
	if ClassifyFault(err) != FaultStaleDuplicate {
		t.Fatalf("classified %s, want stale-duplicate", ClassifyFault(err))
	}
}

// TestDatagramStaleIncarnationDropped: packets under a foreign
// connection ID are dropped silently — counted, never delivered.
func TestDatagramStaleIncarnationDropped(t *testing.T) {
	c := NewDatagramClientConn(newBlackholeConn(), DatagramConfig{Seed: 61})
	defer c.Close()

	c.handlePacket(dgPacket{Kind: dgKindData, Conn: c.ConnID() + 1, Seq: 0, Payload: []byte("ghost")})
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := c.Read(make([]byte, 8)); err == nil || n != 0 {
		t.Fatalf("read returned (%d, %v), want a deadline expiry and no ghost bytes", n, err)
	}
	if got := c.Stats().StaleDropped; got != 1 {
		t.Fatalf("StaleDropped = %d, want 1", got)
	}
}

// TestDatagramFrameProtocolOverARQ: the stream frame codec — CRC,
// sequence discipline and all — runs over a DGConn unchanged.
func TestDatagramFrameProtocolOverARQ(t *testing.T) {
	l := startEchoListener(t, DatagramConfig{Seed: 71})
	c, err := DialDatagram(l.Addr().String(), DatagramConfig{Seed: 72})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	fw := NewFrameWriter(c)
	fr := NewFrameReader(c)
	c.SetDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < 5; i++ {
		// The echo server reflects the raw bytes, so the reflected
		// frames carry the same CRCs and sequence numbers the reader
		// expects — any ARQ slip (lost, duplicated, reordered bytes)
		// would trip the frame layer's own checks.
		want := RateNotification{Index: i, Rate: float64(1000 * (i + 1))}
		if err := fw.WriteRate(want); err != nil {
			t.Fatalf("write rate %d: %v", i, err)
		}
		msg, err := fr.ReadMessage()
		if err != nil {
			t.Fatalf("read echo %d: %v", i, err)
		}
		got, ok := msg.(*RateNotification)
		if !ok || *got != want {
			t.Fatalf("echo %d mangled: %T %+v", i, msg, msg)
		}
	}
}

// transferOverARQ streams pictures×size bytes in picture-sized writes
// from a client flow to a listener flow, both directions' egress
// faulted by nw, and returns both flows' counters once the listener
// side has read every byte intact.
func transferOverARQ(t *testing.T, nw *faultnet.PacketNet, cfg DatagramConfig, pictures, size int) (cli, srv DGStats) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen udp: %v", err)
	}
	srvCfg := cfg
	srvCfg.Seed++
	l := ListenDatagram(nw.WrapPacketConn(pc), srvCfg)
	defer l.Close()

	type result struct {
		sum   uint64
		n     int64
		stats DGStats
	}
	srvDone := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			srvDone <- result{}
			return
		}
		h := fnv.New64a()
		n, _ := io.Copy(h, conn)
		srvDone <- result{h.Sum64(), n, conn.(*DGConn).Stats()}
		conn.Close()
	}()

	raddr, _ := net.ResolveUDPAddr("udp", l.Addr().String())
	udp, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatalf("dial udp: %v", err)
	}
	c := NewDatagramClientConn(nw.WrapConn(udp), cfg)
	defer c.Close()

	payload := make([]byte, pictures*size)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	want := fnv.New64a()
	want.Write(payload)
	c.SetWriteDeadline(time.Now().Add(20 * time.Second))
	for off := 0; off < len(payload); off += size {
		if _, err := c.Write(payload[off : off+size]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	c.Close() // FIN: the listener side's io.Copy ends at EOF

	select {
	case got := <-srvDone:
		if got.n != int64(len(payload)) || got.sum != want.Sum64() {
			t.Fatalf("listener read %d bytes (hash match %v), want %d intact",
				got.n, got.sum == want.Sum64(), len(payload))
		}
		return c.Stats(), got.stats
	case <-time.After(30 * time.Second):
		t.Fatal("transfer did not complete")
	}
	return
}

// calmRTO is a retransmission timeout long enough that a loaded test
// machine cannot fire it spuriously, so the tests using it see only
// the retransmits that losses cause.
var calmRTO = Backoff{Base: 250 * time.Millisecond, Max: time.Second}

// TestDatagramNoRetransmitStorm: on a 2%-lossy, reordering channel the
// sender resends about what the channel drops. ACKs already in flight
// when a hole is fast-retransmitted must not fire it again, so the
// retransmit ratio stays within 3× the measured drop rate and no
// packet comes anywhere near the retransmission budget.
func TestDatagramNoRetransmitStorm(t *testing.T) {
	nw := faultnet.NewPacketNet(faultnet.PacketConfig{
		Seed: 5, LossProb: 0.02, ReorderProb: 0.02, ReorderSpan: 3,
	})
	cfg := DatagramConfig{Seed: 81, RTO: calmRTO}.withDefaults()
	cli, _ := transferOverARQ(t, nw, cfg, 128, 16<<10)

	counts := nw.Counts()
	drop := float64(counts.Dropped) / float64(counts.Packets)
	retx := float64(cli.Retransmits+cli.FastRetransmits) / float64(cli.Sent)
	t.Logf("drop rate %.4f, retransmits/sent %.4f, stats %+v", drop, retx, cli)
	if counts.Dropped == 0 {
		t.Fatalf("channel dropped nothing: %+v", counts)
	}
	if retx > 3*drop {
		t.Errorf("retransmits/sent = %.4f, above 3× the channel's drop rate %.4f", retx, drop)
	}
	if cli.MaxTransmissions > int64(cfg.MaxRetransmits/2) {
		t.Errorf("a packet took %d transmissions (budget %d)", cli.MaxTransmissions, cfg.MaxRetransmits)
	}
}

// dropNthConn drops the nth datagram written through it and passes
// every other one.
type dropNthConn struct {
	net.Conn
	mu     sync.Mutex
	n, nth int
}

func (c *dropNthConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	i := c.n
	c.n++
	c.mu.Unlock()
	if i == c.nth {
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// TestDatagramOneFastRetransmitPerLoss: on a clean channel with one
// forced drop inside a full-window burst, every later packet's ACK
// reports the hole, yet the hole is fast-retransmitted exactly once
// and never by timeout.
func TestDatagramOneFastRetransmitPerLoss(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen udp: %v", err)
	}
	l := ListenDatagram(pc, DatagramConfig{Seed: 91})
	defer l.Close()

	const packets = 48
	msg := bytes.Repeat([]byte{0x5A}, packets*DatagramMTU)
	read := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			read <- err
			return
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err = io.ReadFull(conn, make([]byte, len(msg)))
		read <- err
	}()

	raddr, _ := net.ResolveUDPAddr("udp", l.Addr().String())
	udp, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatalf("dial udp: %v", err)
	}
	c := NewDatagramClientConn(&dropNthConn{Conn: udp, nth: 5}, DatagramConfig{Seed: 92, RTO: calmRTO})
	defer c.Close()
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := <-read; err != nil {
		t.Fatalf("listener read: %v", err)
	}
	st := c.Stats()
	if st.FastRetransmits != 1 || st.Retransmits != 0 {
		t.Fatalf("one lost packet cost %d fast and %d timeout retransmits, want 1 and 0 (%+v)",
			st.FastRetransmits, st.Retransmits, st)
	}
}

// TestDatagramDelayedAcks: on a lossless channel the receiver acks
// about every second DATA packet, not each one.
func TestDatagramDelayedAcks(t *testing.T) {
	nw := faultnet.NewPacketNet(faultnet.PacketConfig{Seed: 3})
	cli, srv := transferOverARQ(t, nw, DatagramConfig{Seed: 101, RTO: calmRTO}, 64, 16<<10)
	data := cli.Sent + cli.Retransmits + cli.FastRetransmits
	t.Logf("data packets %d, acks %d", data, srv.AcksSent)
	if float64(srv.AcksSent) > 0.6*float64(data) {
		t.Fatalf("%d ACKs for %d DATA packets, want at most 0.6 per packet", srv.AcksSent, data)
	}
}

// TestDatagramAckPolicy drives a receiving flow packet by packet: in-
// order DATA is acked every second packet, while a gap, the packet
// that fills it, a duplicate, and the FIN are each acked at once — so
// gap evidence reaches the sender without delay.
func TestDatagramAckPolicy(t *testing.T) {
	var (
		mu   sync.Mutex
		acks []dgPacket
	)
	send := func(b []byte) {
		if p, err := decodeDatagram(b); err == nil && p.Kind == dgKindAck {
			mu.Lock()
			acks = append(acks, p)
			mu.Unlock()
		}
	}
	cfg := DatagramConfig{Seed: 111, Linger: time.Millisecond}.withDefaults()
	c := newDGConn(cfg, 9, blackholeAddr{}, blackholeAddr{}, send, func() {})
	defer c.Close()
	last := func() (int, dgPacket) {
		mu.Lock()
		defer mu.Unlock()
		return len(acks), acks[len(acks)-1]
	}

	for seq := uint32(0); seq < 100; seq++ {
		c.handlePacket(dgPacket{Kind: dgKindData, Conn: 9, Seq: seq, Payload: []byte{byte(seq)}})
	}
	n, ack := last()
	if n > 60 || ack.Cum != 100 {
		t.Fatalf("100 in-order packets drew %d ACKs (last cum %d), want about 50 ending at cum 100", n, ack.Cum)
	}
	steps := []struct {
		name string
		pkt  dgPacket
		cum  uint32
		bmp  uint64
	}{
		{"gap", dgPacket{Kind: dgKindData, Seq: 101, Payload: []byte{1}}, 100, 1},
		{"gap filled", dgPacket{Kind: dgKindData, Seq: 100, Payload: []byte{0}}, 102, 0},
		{"duplicate", dgPacket{Kind: dgKindData, Seq: 50, Payload: []byte{50}}, 102, 0},
		{"fin", dgPacket{Kind: dgKindFin, Seq: 102}, 103, 0},
	}
	for _, s := range steps {
		s.pkt.Conn = 9
		c.handlePacket(s.pkt)
		m, ack := last()
		if m != n+1 || ack.Cum != s.cum || ack.Bitmap != s.bmp {
			t.Fatalf("%s: %d new ACKs, last cum %d bitmap %#x; want 1 with cum %d bitmap %#x",
				s.name, m-n, ack.Cum, ack.Bitmap, s.cum, s.bmp)
		}
		n = m
	}
}

// TestDatagramFlowKey: the listener keys UDP peers by AddrPort without
// allocating, and any other address by its String form.
func TestDatagramFlowKey(t *testing.T) {
	a := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4000}
	if flowKeyOf(a) != flowKeyOf(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4000}) {
		t.Error("equal UDP addresses keyed apart")
	}
	if flowKeyOf(a) == flowKeyOf(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4001}) {
		t.Error("distinct UDP ports share a key")
	}
	if got := flowKeyOf(blackholeAddr{}); got != (flowKey{name: "blackhole"}) {
		t.Errorf("non-UDP address keyed %+v", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = flowKeyOf(a) }); n != 0 {
		t.Errorf("keying a UDP address allocates %.0f times", n)
	}
}
