package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"path/filepath"
	"time"

	"mpegsmooth/internal/cluster"
	"mpegsmooth/internal/core"
	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/server"
	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/transport"
)

// slots is the number of client connections open at once, and of
// generator goroutines: the benchmark machine has two cores.
const slots = 2

// workload is one traffic mix. README.md and BENCHMARK.json say why
// each exists.
type workload struct {
	name string
	// cluster runs a primary plus one follower with Quorum 2; otherwise
	// smoothd runs standalone.
	cluster bool
	// datagram carries the streams over the ARQ transport on lossy
	// loopback UDP instead of TCP.
	datagram  bool
	timeScale float64 // both sides: client pacing and server egress
	pictures  int     // per stream
	sequences []func(pictures int, seed int64) (*trace.Trace, error)
	chunk     int // client pacing chunk, bytes
}

var workloads = []*workload{
	{
		name:      "burst-quorum2",
		cluster:   true,
		timeScale: 1e6,
		pictures:  54,
		sequences: []func(int, int64) (*trace.Trace, error){trace.Driving1, trace.Driving2},
		chunk:     64 << 10,
	},
	{
		name:      "paced-long",
		timeScale: 20,
		pictures:  270,
		sequences: []func(int, int64) (*trace.Trace, error){trace.Driving1, trace.Driving2, trace.Tennis, trace.Backyard},
		chunk:     4096,
	},
	{
		name:      "dgram-lossy",
		datagram:  true,
		timeScale: 20,
		pictures:  270,
		sequences: []func(int, int64) (*trace.Trace, error){trace.Driving1, trace.Driving2, trace.Tennis, trace.Backyard},
		chunk:     4096,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// smoothing is the client's encoding-side smoothing, and the server's.
var smoothing = core.Config{K: 1, D: 0.2}

// sequence is one generated picture-size trace with the client's
// schedule for it and the departures the server promises for it.
type sequence struct {
	tr    *trace.Trace
	sched *core.Schedule
	hello transport.StreamHello
	// depart[i] is picture i's last-bit departure (schedule seconds) in
	// a reference Session built the way the server builds its own.
	depart []float64
	bytes  int64
}

func makeSequences(w *workload, seed int64) ([]*sequence, error) {
	var out []*sequence
	for i, gen := range w.sequences {
		tr, err := gen(w.pictures, seed*16+int64(i)+1)
		if err != nil {
			return nil, err
		}
		cfg := smoothing
		cfg.H = tr.GOP.N
		sched, err := core.Smooth(tr, cfg)
		if err != nil {
			return nil, err
		}
		seq := &sequence{
			tr:    tr,
			sched: sched,
			hello: transport.StreamHello{
				Tau: tr.Tau, GOP: tr.GOP, K: cfg.K, D: cfg.D,
				Pictures: tr.Len(), PeakRate: sched.PeakRate(),
			},
		}
		sess, err := core.NewSession(tr.Tau, tr.GOP, cfg)
		if err != nil {
			return nil, err
		}
		seq.depart = make([]float64, tr.Len())
		var decs []core.Decision
		for _, s := range tr.Sizes {
			n := payloadLen(s)
			if n < stampLen {
				return nil, fmt.Errorf("%s: a %d-byte picture cannot carry a stamp", tr.Name, n)
			}
			seq.bytes += int64(n)
			d, err := sess.Push(int64(n) * 8)
			if err != nil {
				return nil, err
			}
			decs = append(decs, d...)
		}
		for _, d := range append(decs, sess.Close()...) {
			seq.depart[d.Picture] = d.Depart
		}
		out = append(out, seq)
	}
	return out, nil
}

func payloadLen(bits int64) int { return int((bits + 7) / 8) }

// bufset is one set of payload buffers a slot streams from. A slot
// alternates between two, so its next stream can start while egress
// still drains the previous one, whose bytes the sink compares against.
type bufset struct {
	seq      int // index of the sequence the buffers hold
	slab     []byte
	payloads [][]byte
	times    []time.Time // per-picture egress times, reused by each flow
	rec      *streamRec  // the last stream sent from these buffers, until finished
}

// fill generates seeded random payloads for sequence seqIdx. Every
// (slot, set, sequence) has its own bytes, so no two in-flight streams
// share content and the sink can tell their writes apart. Callers
// finish the set's last stream first: the slab is reused.
func (b *bufset) fill(seqs []*sequence, seqIdx int, seed int64, slot, set int) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%d", seed, slot, set, seqIdx)
	sizes := seqs[seqIdx].tr.Sizes
	total := 0
	for _, s := range sizes {
		total += payloadLen(s)
	}
	words := (total + 7) / 8
	if cap(b.slab) < 8*words {
		b.slab = make([]byte, 8*words)
	}
	b.slab = b.slab[:8*words]
	x := h.Sum64()
	for i := 0; i < len(b.slab); i += 8 {
		// splitmix64: fast enough that payload generation stays a small
		// share of setup_s.
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b.slab[i:], z^(z>>31))
	}
	b.payloads = b.payloads[:0]
	off := 0
	for _, s := range sizes {
		n := payloadLen(s)
		b.payloads = append(b.payloads, b.slab[off:off+n:off+n])
		off += n
	}
	b.seq = seqIdx
}

// env is one running smoothd deployment plus the generator's inputs.
type env struct {
	w      *workload
	seed   int64
	dir    string
	seqs   []*sequence
	sets   [slots][2]bufset
	sink   *sink
	tracer *tracer

	addr     string
	srv      *server.Server // the standalone server (nil in a cluster)
	primary  *cluster.Node
	follow   *cluster.Node
	attempts int // cluster start attempts
	ln       net.Listener
	served   chan error
	srvNet   *faultnet.PacketNet // server→client channel faults
	cliNet   *faultnet.PacketNet // client→server channel faults
}

// server returns the serving stream server.
func (e *env) server() *server.Server {
	if e.primary != nil {
		return e.primary.Server()
	}
	return e.srv
}

// lossyChannel is dgram-lossy's packet channel, run in both directions:
// i.i.d. loss of about 2%, bounded reorder, short Gilbert–Elliott
// bursts.
func lossyChannel(seed int64) faultnet.PacketConfig {
	return faultnet.PacketConfig{
		Seed:        seed,
		LossProb:    0.02,
		ReorderProb: 0.02,
		ReorderSpan: 3,
		Burst:       faultnet.PacketBurst{EnterProb: 0.002, ExitProb: 0.5, LossProb: 0.9},
	}
}

// setup builds the workload's inputs and starts smoothd; it returns once
// the first hello can be sent. A torn-down env from an earlier set-up
// of the same run, when given, lends its payload memory, so repeated
// set-ups time smoothd's start and the payload generation rather than
// page faults on fresh memory.
func setup(w *workload, seed int64, dir string, tr *tracer, recycle *env) (*env, error) {
	e := &env{w: w, seed: seed, dir: dir, sink: &sink{}, tracer: tr}
	var err error
	if e.seqs, err = makeSequences(w, seed); err != nil {
		return nil, err
	}
	for s := range e.sets {
		for k := range e.sets[s] {
			if recycle != nil {
				e.sets[s][k].slab = recycle.sets[s][k].slab
			}
			seqIdx := (s + k) % len(e.seqs)
			e.sets[s][k].fill(e.seqs, seqIdx, seed, s, k)
		}
	}
	maxPeak := 0.0
	for _, q := range e.seqs {
		maxPeak = max(maxPeak, q.hello.PeakRate)
	}
	scfg := server.Config{
		// Room for every slot's current and draining stream, so no
		// stream is ever refused.
		LinkRate:     4 * slots * maxPeak,
		TimeScale:    w.timeScale,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 10 * time.Second,
		Egress:       e.sink,
	}
	if tr != nil {
		scfg.Clock = egressClock{tr}
	}
	if w.cluster {
		// The peers' addresses are reserved by bind-and-release, which
		// another process can race; a fresh pair usually fixes that.
		for try := 0; try < 3; try++ {
			if err = e.startCluster(scfg); err == nil {
				break
			}
			e.stopCluster()
		}
	} else {
		err = e.startServer(scfg)
	}
	if err != nil {
		e.teardown()
		return nil, err
	}
	return e, nil
}

func (e *env) journalFS(name string, node uint8) (journal.FS, error) {
	fs, err := journal.DirFS(filepath.Join(e.dir, name))
	if err != nil {
		return nil, err
	}
	if e.tracer != nil {
		fs = tracedFS{FS: fs, t: e.tracer, node: node}
	}
	return fs, nil
}

func (e *env) startServer(scfg server.Config) error {
	fs, err := e.journalFS("journal", nodePrimary)
	if err != nil {
		return err
	}
	j, err := journal.Open(journal.Config{FS: fs})
	if err != nil {
		return err
	}
	scfg.Journal = j
	if e.srv, err = server.New(scfg); err != nil {
		j.Close()
		return err
	}
	if e.w.datagram {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.srvNet = faultnet.NewPacketNet(lossyChannel(e.seed*2 + 1))
		e.cliNet = faultnet.NewPacketNet(lossyChannel(e.seed*2 + 2))
		e.ln = transport.ListenDatagram(e.srvNet.WrapPacketConn(pc), transport.DatagramConfig{Seed: e.seed})
	} else if e.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	e.addr = e.ln.Addr().String()
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(e.ln) }()
	return nil
}

func (e *env) startCluster(scfg server.Config) error {
	addrs, err := freeAddrs(2)
	if err != nil {
		return err
	}
	peers := []cluster.Peer{{Name: "bench", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	start := func(rank int, node uint8, name string) (*cluster.Node, error) {
		fs, err := e.journalFS(name, node)
		if err != nil {
			return nil, err
		}
		n, err := cluster.New(cluster.Config{
			Shard: "bench", Rank: rank, Peers: peers,
			Journal:  journal.Config{FS: fs},
			Server:   scfg,
			Replicas: 1, Quorum: 2,
			Seed: e.seed*2 + int64(rank) + 1,
		})
		if err != nil {
			return nil, err
		}
		return n, n.Start()
	}
	// Each attempt journals into fresh directories: a retry must not
	// recover the failed attempt's state.
	e.attempts++
	if e.primary, err = start(0, nodePrimary, fmt.Sprintf("primary-%d", e.attempts)); err != nil {
		return err
	}
	if e.follow, err = start(1, nodeFollower, fmt.Sprintf("follower-%d", e.attempts)); err != nil {
		return err
	}
	e.addr = e.primary.StreamAddr()
	return waitUntil(10*time.Second, func() bool {
		st := e.primary.Status().Replication
		return st.ReplicasConnected == 1 && !st.QuorumDegraded && e.primary.Server() != nil
	})
}

// teardown stops smoothd. Its journals stay on disk until the next run
// starts: freeing their blocks (the file system may discard them) would
// slow the fsyncs this run still measures.
func (e *env) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	e.stopCluster()
	if e.srv != nil {
		e.srv.Shutdown(ctx)
		if e.served != nil {
			<-e.served
		}
	}
	if e.ln != nil {
		e.ln.Close()
	}
}

func (e *env) stopCluster() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if e.primary != nil {
		e.primary.Shutdown(ctx)
	}
	if e.follow != nil {
		e.follow.Shutdown(ctx)
	}
	e.primary, e.follow = nil, nil
}

// freeAddrs reserves n loopback TCP addresses by binding and releasing
// them (cluster peers must be configured with concrete addresses).
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

var errTimeout = errors.New("timed out")

func waitUntil(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return errTimeout
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
