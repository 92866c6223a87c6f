package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// A stamp is the last stampLen bytes of every generated payload:
//
//	magic (4) | stream (4) | picture index (4) | crc32 of the first 12 (4)
//
// all little-endian. It lets the egress sink name the picture whose last
// byte a write carried, from the bytes that crossed the link alone.
const (
	stampLen   = 16
	stampMagic = 0x4b42534d // "MSBK"
)

type stamp struct {
	stream uint32
	index  uint32
}

func putStamp(dst []byte, s stamp) {
	binary.LittleEndian.PutUint32(dst[0:], stampMagic)
	binary.LittleEndian.PutUint32(dst[4:], s.stream)
	binary.LittleEndian.PutUint32(dst[8:], s.index)
	binary.LittleEndian.PutUint32(dst[12:], crc32.ChecksumIEEE(dst[:12]))
}

func parseStamp(b []byte) (stamp, error) {
	if len(b) != stampLen {
		return stamp{}, fmt.Errorf("stamp: %d bytes, want %d", len(b), stampLen)
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != stampMagic {
		return stamp{}, fmt.Errorf("stamp: bad magic %08x", m)
	}
	if got, want := binary.LittleEndian.Uint32(b[12:]), crc32.ChecksumIEEE(b[:12]); got != want {
		return stamp{}, fmt.Errorf("stamp: check %08x, want %08x", got, want)
	}
	return stamp{stream: binary.LittleEndian.Uint32(b[4:]), index: binary.LittleEndian.Uint32(b[8:])}, nil
}

// stampTail keeps the last stampLen bytes of one stream's egress, so a
// stamp split across two link writes (a payload whose length is just
// past a chunk boundary) still decodes whole.
type stampTail struct {
	buf [stampLen]byte
	n   int
}

func (t *stampTail) feed(p []byte) {
	if len(p) >= stampLen {
		copy(t.buf[:], p[len(p)-stampLen:])
		t.n = stampLen
		return
	}
	keep := min(t.n, stampLen-len(p))
	copy(t.buf[:], t.buf[t.n-keep:t.n])
	copy(t.buf[keep:], p)
	t.n = keep + len(p)
}

func (t *stampTail) stamp() (stamp, error) { return parseStamp(t.buf[:t.n]) }

// flow is one generated stream as the egress sink expects to see it:
// its stamped payloads in order, a cursor into them, and the wall time
// each picture's last byte crossed the link.
type flow struct {
	id       uint32
	payloads [][]byte
	pic, off int
	tail     stampTail
	lastByte []time.Time
	done     chan struct{}
}

// newFlow expects payloads in order; times is reused for lastByte when
// it is large enough.
func newFlow(id uint32, payloads [][]byte, times []time.Time) *flow {
	if cap(times) < len(payloads) {
		times = make([]time.Time, len(payloads))
	}
	return &flow{id: id, payloads: payloads, lastByte: times[:len(payloads)], done: make(chan struct{})}
}

// matches reports whether p is the next len(p) bytes this flow expects.
func (f *flow) matches(p []byte) bool {
	pic, off := f.pic, f.off
	for len(p) > 0 {
		if pic >= len(f.payloads) {
			return false
		}
		exp := f.payloads[pic][off:]
		n := min(len(p), len(exp))
		if !bytes.Equal(p[:n], exp[:n]) {
			return false
		}
		p = p[n:]
		pic, off = pic+1, 0
	}
	return true
}

// sink is the server's egress link. It attributes every write to the
// in-flight flow whose next expected bytes it carries, so delivery is
// checked byte for byte, and timestamps the write that completes each
// picture from the picture's own stamp.
type sink struct {
	mu       sync.Mutex
	inflight []*flow
	writes   int64
	bytes    int64
	errs     []string
}

// maxViolations bounds the violations a sink or pass keeps verbatim.
const maxViolations = 20

func (s *sink) add(f *flow) {
	s.mu.Lock()
	s.inflight = append(s.inflight, f)
	s.mu.Unlock()
}

// drop stops expecting a flow whose stream failed.
func (s *sink) drop(f *flow) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.remove(f)
}

func (s *sink) remove(f *flow) {
	for i, c := range s.inflight {
		if c == f {
			s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
			return
		}
	}
}

func (s *sink) fail(format string, args ...any) {
	if len(s.errs) < maxViolations {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

func (s *sink) Write(p []byte) (int, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	s.bytes += int64(len(p))
	var f *flow
	for _, c := range s.inflight {
		if c.matches(p) {
			f = c
			break
		}
	}
	if f == nil {
		s.fail("egress write of %d bytes matches no in-flight stream", len(p))
		return len(p), nil
	}
	for rest := p; len(rest) > 0; {
		n := min(len(rest), len(f.payloads[f.pic])-f.off)
		f.tail.feed(rest[:n])
		rest, f.off = rest[n:], f.off+n
		if f.off < len(f.payloads[f.pic]) {
			continue
		}
		st, err := f.tail.stamp()
		switch {
		case err != nil:
			s.fail("stream %d picture %d: %v", f.id, f.pic, err)
		case st.stream != f.id || int(st.index) != f.pic:
			s.fail("stream %d picture %d: stamp names stream %d picture %d", f.id, f.pic, st.stream, st.index)
		}
		f.lastByte[f.pic] = now
		f.pic, f.off = f.pic+1, 0
	}
	if f.pic == len(f.payloads) {
		close(f.done)
		s.remove(f)
	}
	return len(p), nil
}

// snapshot returns the sink's counters and violations so far.
func (s *sink) snapshot() (writes, nbytes int64, errs []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes, s.bytes, append([]string(nil), s.errs...)
}
