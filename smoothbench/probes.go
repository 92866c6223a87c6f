package main

import (
	"bytes"
	"errors"
	"runtime"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/transport"
)

// probeBudget is how long each stage probe replays one sequence.
const probeBudget = 100 * time.Millisecond

// cost is what one replay of a stage cost on average.
type cost struct {
	ns, allocs float64
}

// timeCalls calls fn until probeBudget has passed (at least twice) and
// returns its mean wall time and heap allocations per call.
func timeCalls(fn func() error) (cost, error) {
	if err := fn(); err != nil { // warm caches and pools
		return cost{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	calls := 0
	for calls < 2 || time.Since(t0) < probeBudget {
		if err := fn(); err != nil {
			return cost{}, err
		}
		calls++
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return cost{ns: float64(el.Nanoseconds()) / float64(calls), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(calls)}, nil
}

// wireBytes is the byte stream a client sends for one stream of seq:
// hello, rate notifications, picture headers, payloads, end marker.
func wireBytes(seq *sequence, payloads [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	fw := transport.NewFrameWriter(&buf)
	if err := fw.WriteHello(seq.hello); err != nil {
		return nil, err
	}
	last := 0.0
	for i, p := range payloads {
		if r := seq.sched.Rates[i]; r != last {
			if err := fw.WriteRate(transport.RateNotification{Index: i, Rate: r}); err != nil {
				return nil, err
			}
			last = r
		}
		if err := fw.WritePictureHeader(i, seq.tr.TypeOf(i), p); err != nil {
			return nil, err
		}
		if err := fw.WriteChunk(p); err != nil {
			return nil, err
		}
	}
	if err := fw.WriteEnd(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runProbes replays each of the workload's sequences — its own wire
// bytes, payloads and sizes — through the public functions of the
// stages that run inside the server, and reports the cost per picture
// (per record for the journal).
func runProbes(e *env) (report, error) {
	var parse, fnvHash, hmacHash, decide, appendRec cost
	pictures, records := 0, 0
	hmacKey := bytes.Repeat([]byte{0x5a}, 32)
	j, err := journal.Open(journal.Config{FS: journal.NewMemFS()})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	token := uint64(0)
	add := func(dst *cost, c cost) { dst.ns += c.ns; dst.allocs += c.allocs }

	for i, seq := range e.seqs {
		var set bufset
		set.fill(e.seqs, i, e.seed, 0, 0)
		payloads := set.payloads
		n := len(payloads)
		wire, err := wireBytes(seq, payloads)
		if err != nil {
			return nil, err
		}
		var pool transport.BufferPool
		c, err := timeCalls(func() error {
			fr := transport.NewFrameReaderBuffered(bytes.NewReader(wire))
			fr.Pool = &pool
			for {
				m, err := fr.ReadMessage()
				if errors.Is(err, transport.ErrClosed) {
					return nil
				}
				if err != nil {
					return err
				}
				if pf, ok := m.(*transport.PictureFrame); ok {
					pool.Put(pf.Payload)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		add(&parse, c)

		for mode, dst := range map[transport.IntegrityMode]*cost{transport.IntegrityFNV: &fnvHash, transport.IntegrityHMAC: &hmacHash} {
			c, err := timeCalls(func() error {
				ph, err := transport.NewPrefixHash(mode, hmacKey)
				if err != nil {
					return err
				}
				for _, p := range payloads {
					ph.Absorb(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			add(dst, c)
		}

		c, err = timeCalls(func() error {
			sess, err := core.NewSession(seq.tr.Tau, seq.tr.GOP, core.Config{K: seq.hello.K, D: seq.hello.D, H: seq.tr.GOP.N})
			if err != nil {
				return err
			}
			for _, p := range payloads {
				if _, err := sess.Push(int64(len(p)) * 8); err != nil {
					return err
				}
			}
			sess.Close()
			return nil
		})
		if err != nil {
			return nil, err
		}
		add(&decide, c)

		ph, _ := transport.NewPrefixHash(transport.IntegrityFNV, nil)
		state := ph.State()
		c, err = timeCalls(func() error {
			token++
			hello := seq.hello
			hello.Nonce = token
			if _, err := j.Admitted(journal.StreamRecord{Token: token, Hello: hello, HashState: state}); err != nil {
				return err
			}
			for k := range payloads {
				j.Watermark(token, k+1, state)
			}
			_, err := j.Completed(journal.TombstoneRecord{Token: token, Nonce: token, Pictures: n, HashState: state, Expires: time.Now().Add(time.Hour)})
			return err
		})
		if err != nil {
			return nil, err
		}
		add(&appendRec, c)
		pictures += n
		records += n + 2
	}

	per := func(c cost, n int) cost { return cost{ns: c.ns / float64(n), allocs: c.allocs / float64(n)} }
	// Each sequence was replayed once per measured call, so the summed
	// per-call costs divide by the pictures (records) of one pass over
	// every sequence.
	parse, fnvHash, hmacHash, decide = per(parse, pictures), per(fnvHash, pictures), per(hmacHash, pictures), per(decide, pictures)
	appendRec = per(appendRec, records)
	var r report
	r.add("transport.parse_ns_per_picture", parse.ns, "ns", pictures)
	r.add("transport.parse_allocs_per_picture", parse.allocs, "count", pictures)
	r.add("transport.prefix_hash_ns_per_picture", fnvHash.ns, "ns", pictures)
	r.add("transport.prefix_hash_hmac_ns_per_picture", hmacHash.ns, "ns", pictures)
	r.add("core.decide_ns_per_picture", decide.ns, "ns", pictures)
	r.add("core.decide_allocs_per_picture", decide.allocs, "count", pictures)
	r.add("journal.append_ns_per_record", appendRec.ns, "ns", records)
	return r, nil
}
