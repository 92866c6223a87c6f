package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/transport"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanStream spanKind = iota // client: hello sent → stream returned
	spanAdmit                  // client: hello sent → first verdict byte
	spanWrite                  // journal FS: File.Write
	spanSync                   // journal FS: File.Sync
)

var spanNames = [...]string{"stream", "admit", "fs.write", "fs.sync"}

// Where a span was recorded.
const (
	nodeClient   uint8 = iota // the generator's client side
	nodePrimary               // the standalone server's or the cluster primary's journal
	nodeFollower              // the follower's journal
)

// span is one recorded interval. Spans of one stream share id; FS spans
// carry the node and the bytes written.
type span struct {
	kind  spanKind
	node  uint8
	id    uint32
	iv    interval
	bytes int64
}

// tracer keeps the traced run's spans and samples in memory; they are
// written out once the run ends.
type tracer struct {
	base time.Time
	// from is the start of the measured window (ns since base): samples
	// and counts before it belong to the warm-up and are not kept. It
	// is set before any load starts.
	from int64

	mu          sync.Mutex
	spans       []span
	oversleepUS []float64 // server egress Clock.Sleep: actual − requested
	latenessMS  []float64 // generator Sender clock: actual − requested

	egressSleeps atomic.Int64 // server Clock.Sleep calls with d > 0
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

func (t *tracer) measuring(at time.Time) bool { return t.ns(at) >= t.from }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spansOf returns the measured window's spans of one kind from one node.
func (t *tracer) spansOf(kind spanKind, node uint8) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.kind == kind && s.node == node && s.iv.start >= t.from {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans dumps every span as CSV.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,node,stream,start_ns,end_ns,bytes")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", spanNames[s.kind], s.node, s.id, s.iv.start, s.iv.end, s.bytes)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// egressClock is the server's Config.Clock in the traced run: it counts
// the pacing sleeps egress asks for and how far each overran.
type egressClock struct{ t *tracer }

func (c egressClock) Now() time.Time { return time.Now() }

func (c egressClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return transport.RealClock{}.Sleep(ctx, d)
	}
	t0 := time.Now()
	err := transport.RealClock{}.Sleep(ctx, d)
	if !c.t.measuring(t0) {
		return err
	}
	over := time.Since(t0) - d
	c.t.egressSleeps.Add(1)
	c.t.mu.Lock()
	c.t.oversleepUS = append(c.t.oversleepUS, float64(over)/float64(time.Microsecond))
	c.t.mu.Unlock()
	return err
}

// genClock is one stream's Sender clock. Its first Now is the Sender's
// schedule origin, which every picture's due time is measured from; in
// the traced run it also records how late the generator woke.
type genClock struct {
	origin time.Time
	t      *tracer // nil when untraced
}

func (c *genClock) Now() time.Time {
	now := time.Now()
	if c.origin.IsZero() {
		c.origin = now
	}
	return now
}

func (c *genClock) Sleep(ctx context.Context, d time.Duration) error {
	if c.t == nil || d <= 0 {
		return transport.RealClock{}.Sleep(ctx, d)
	}
	t0 := time.Now()
	err := transport.RealClock{}.Sleep(ctx, d)
	if !c.t.measuring(t0) {
		return err
	}
	over := time.Since(t0) - d
	c.t.mu.Lock()
	c.t.latenessMS = append(c.t.latenessMS, float64(over)/float64(time.Millisecond))
	c.t.mu.Unlock()
	return err
}

// clientConn is the generator's view of one client connection: the
// first write is the hello, the first byte read back the verdict. In
// the traced run it also times every write (time blocked in Write is
// server backpressure).
type clientConn struct {
	net.Conn
	rec    *streamRec
	traced bool
}

func (c *clientConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	if c.rec.helloAt.IsZero() {
		c.rec.helloAt = t0
	}
	n, err := c.Conn.Write(p)
	if c.traced {
		c.rec.writeBlocked += time.Since(t0)
		c.rec.writes++
	}
	return n, err
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.rec.verdictAt.IsZero() {
		c.rec.verdictAt = time.Now()
	}
	return n, err
}

// packetCounter sits under a client ARQ flow and counts the datagrams
// it emits, lost ones included. The flow's own goroutines call it.
type packetCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c packetCounter) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// tracedFS records a span around every journal Write and Sync.
type tracedFS struct {
	journal.FS
	t    *tracer
	node uint8
}

func (f tracedFS) Create(name string) (journal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, fs: f}, nil
}

type tracedFile struct {
	journal.File
	fs tracedFS
}

func (f tracedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.t.add(span{kind: spanWrite, node: f.fs.node, iv: interval{f.fs.t.ns(t0), f.fs.t.ns(time.Now())}, bytes: int64(n)})
	return n, err
}

func (f tracedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.t.add(span{kind: spanSync, node: f.fs.node, iv: interval{f.fs.t.ns(t0), f.fs.t.ns(time.Now())}})
	return err
}
