package transport

import (
	"bytes"
	"io"
	"net"
	"testing"

	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/mpeg"
)

// encodePictures frames count pictures of size payloadBytes into one
// contiguous byte stream, exactly as a sender would put them on the
// wire (header frame followed by the raw payload chunk).
func encodePictures(tb testing.TB, count, payloadBytes int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for i := 0; i < count; i++ {
		if err := fw.WritePictureHeader(i, mpeg.TypeP, payload); err != nil {
			tb.Fatal(err)
		}
		if err := fw.WriteChunk(payload); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFrameReaderSteadyStateZeroAlloc pins the ingest hot path at zero
// allocations per frame: a pooled FrameReader decoding a steady stream
// of pictures must reuse its read buffers, its PictureFrame value, and
// the pooled payload buffers, allocating nothing once warm. A
// regression here puts the garbage collector back in the per-picture
// path, which is exactly what the pool exists to prevent.
//
// The short-streams case is the server's shape: many six-picture
// streams of mixed sizes, each on its own reader, all drawing from one
// pool and each holding a few payloads in flight the way the egress
// queue does. A pool per stream starts every stream cold and allocates
// its first pictures; the shared pool must not allocate at all.
func TestFrameReaderSteadyStateZeroAlloc(t *testing.T) {
	const runs = 200
	t.Run("steady", func(t *testing.T) {
		stream := encodePictures(t, runs+8, 4096)
		fr := NewFrameReader(bytes.NewReader(stream))
		var pool BufferPool
		fr.Pool = &pool

		readOne := func() {
			pool.Put(readPicture(t, fr).Payload)
		}
		// Warm up: the first read seeds the pool.
		for i := 0; i < 4; i++ {
			readOne()
		}
		if allocs := testing.AllocsPerRun(runs, readOne); allocs != 0 {
			t.Errorf("steady-state pooled frame read allocates %.1f objects/frame, want 0", allocs)
		}
	})
	t.Run("short-streams-mixed-sizes", func(t *testing.T) {
		const perStream, inFlight = 6, 3
		sizes := []int{300, 4096, 1500, 40000, 700, 9000, 20000, 2048, 65536, 260, 12000}
		var pool BufferPool
		// Every reader exists before the measurement starts: opening a
		// connection allocates, and this test is about payloads.
		var readers []*FrameReader
		for k := 0; len(readers)*perStream < 2*runs; k++ {
			var buf bytes.Buffer
			fw := NewFrameWriter(&buf)
			for i := 0; i < perStream; i++ {
				payload := make([]byte, sizes[(k*perStream+i*5)%len(sizes)])
				if err := fw.WritePictureHeader(i, mpeg.TypeP, payload); err != nil {
					t.Fatal(err)
				}
				if err := fw.WriteChunk(payload); err != nil {
					t.Fatal(err)
				}
			}
			fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
			fr.Pool = &pool
			readers = append(readers, fr)
		}
		var held [inFlight][]byte
		read := 0
		readOne := func() {
			fr := readers[read/perStream]
			slot := read % inFlight
			pool.Put(held[slot])
			held[slot] = readPicture(t, fr).Payload
			read++
		}
		// Warm up on the first streams, then measure on fresh ones.
		for read < runs/2 {
			readOne()
		}
		if allocs := testing.AllocsPerRun(runs, readOne); allocs != 0 {
			t.Errorf("short streams on one pool allocate %.2f objects/frame, want 0", allocs)
		}
	})
}

// readPicture reads the next message from fr, which must be a picture.
func readPicture(t *testing.T, fr *FrameReader) *PictureFrame {
	m, err := fr.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	pic, ok := m.(*PictureFrame)
	if !ok {
		t.Fatalf("read %T, want *PictureFrame", m)
	}
	return pic
}

// TestFrameWriterSteadyStateZeroAlloc pins the egress side the same
// way: once the writer's scratch buffer is warm, framing a picture
// must not allocate — one message per call, or the Sender's coalesced
// opening write (rate notification, header and first chunk) followed
// by the remaining chunks.
func TestFrameWriterSteadyStateZeroAlloc(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	payload := make([]byte, 4096)
	writeOne := func() {
		if err := fw.WritePictureHeader(0, mpeg.TypeI, payload); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteChunk(payload); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	writeCoalesced := func() {
		var rate *RateNotification
		if n%2 == 0 {
			rate = &RateNotification{Index: n, Rate: float64(1e6 + n)}
		}
		if err := fw.writePicture(rate, n, mpeg.TypeP, payload, 1024); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteChunk(payload[1024:]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	// Warm the scratch buffer and the opening-write buffers.
	writeOne()
	writeCoalesced()
	// Indexes repeat across runs; the reader end would reject that, but
	// framing doesn't care and io.Discard has no reader end.
	if allocs := testing.AllocsPerRun(200, writeOne); allocs != 0 {
		t.Errorf("steady-state frame write allocates %.1f objects/frame, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, writeCoalesced); allocs != 0 {
		t.Errorf("steady-state coalesced picture write allocates %.1f objects/frame, want 0", allocs)
	}
}

// BenchmarkFrameReaderPictures measures raw frame-decode throughput,
// pooled versus allocate-per-message. The pooled configuration is the
// server's; the alloc configuration is the pre-pool behaviour kept for
// caller-owned payloads.
func BenchmarkFrameReaderPictures(b *testing.B) {
	const payloadBytes = 4096
	for _, pooled := range []bool{true, false} {
		name := "alloc"
		if pooled {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			const chunk = 512 // frames per reader session
			stream := encodePictures(b, chunk, payloadBytes)
			var pool BufferPool
			rd := bytes.NewReader(stream)
			fr := NewFrameReader(rd)
			if pooled {
				fr.Pool = &pool
			}
			b.SetBytes(payloadBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%chunk == 0 && i > 0 {
					// Sessions carry a sequence counter, so replaying
					// the stream needs a fresh reader (pool persists).
					rd.Reset(stream)
					fr = NewFrameReader(rd)
					if pooled {
						fr.Pool = &pool
					}
				}
				m, err := fr.ReadMessage()
				if err != nil {
					b.Fatal(err)
				}
				pic := m.(*PictureFrame)
				if pooled {
					pool.Put(pic.Payload)
				}
			}
		})
	}
}

// BenchmarkDGConnTransfer runs the datagram ARQ path over UDP loopback:
// each op writes one 64 KiB picture through a client flow and waits
// until the listener's flow has read all of it. Both directions run
// through a faultnet.PacketNet, clean or with 2% loss and bounded
// reorder. Beside allocs/op it reports what the flow spent per picture:
// DATA packets (first sends and retransmits), ACKs and retransmits.
func BenchmarkDGConnTransfer(b *testing.B) {
	for _, bc := range []struct {
		name string
		ch   faultnet.PacketConfig
	}{
		{"clean", faultnet.PacketConfig{Seed: 1}},
		{"lossy2pct", faultnet.PacketConfig{Seed: 1, LossProb: 0.02, ReorderProb: 0.02, ReorderSpan: 3}},
	} {
		b.Run(bc.name, func(b *testing.B) { benchDGTransfer(b, faultnet.NewPacketNet(bc.ch)) })
	}
}

func benchDGTransfer(b *testing.B, nw *faultnet.PacketNet) {
	const size = 64 << 10
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	l := ListenDatagram(nw.WrapPacketConn(pc), DatagramConfig{Seed: 2})
	defer l.Close()
	accepted := make(chan *DGConn, 1)
	read := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			read <- err
			return
		}
		accepted <- conn.(*DGConn)
		buf := make([]byte, size)
		for {
			_, err := io.ReadFull(conn, buf)
			read <- err
			if err != nil {
				return
			}
		}
	}()

	raddr, _ := net.ResolveUDPAddr("udp", l.Addr().String())
	udp, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		b.Fatal(err)
	}
	c := NewDatagramClientConn(nw.WrapConn(udp), DatagramConfig{Seed: 3})
	defer c.Close()
	picture := make([]byte, size)
	transfer := func() {
		if _, err := c.Write(picture); err != nil {
			b.Fatal(err)
		}
		if err := <-read; err != nil {
			b.Fatal(err)
		}
	}
	transfer() // opens the flow and warms its buffers
	srv := <-accepted
	cli0, srv0 := c.Stats(), srv.Stats()

	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transfer()
	}
	b.StopTimer()
	cli, s := c.Stats(), srv.Stats()
	retx := cli.Retransmits + cli.FastRetransmits - cli0.Retransmits - cli0.FastRetransmits
	n := float64(b.N)
	b.ReportMetric(float64(cli.Sent-cli0.Sent+retx)/n, "data-pkts/op")
	b.ReportMetric(float64(s.AcksSent-srv0.AcksSent)/n, "acks/op")
	b.ReportMetric(float64(retx)/n, "retransmits/op")
}
