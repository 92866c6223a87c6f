package server

import (
	"fmt"
	"sync"
	"testing"
)

// uniformSink is an egress link that checks every write carries one
// byte value: each write is a slice of a single picture's payload, and
// every payload in TestSharedPoolCrossStreamIsolation is filled with
// its own stream's constant byte.
type uniformSink struct {
	mu      sync.Mutex
	bytes   int64
	writes  int
	mixed   int
	example string
}

func (s *uniformSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	s.bytes += int64(len(p))
	for i, b := range p {
		if b != p[0] {
			if s.mixed == 0 {
				s.example = fmt.Sprintf("write %d: byte %d is %#02x after %#02x", s.writes, i, b, p[0])
			}
			s.mixed++
			break
		}
	}
	return len(p), nil
}

// TestSharedPoolCrossStreamIsolation runs concurrent short streams
// through one server, so their payload buffers cycle through the
// server-wide pool from stream to stream. Every payload is filled with
// its own stream's constant byte, and every egress write must be
// uniform: a buffer handed to another stream's reader before egress has
// finished with it gets overwritten mid-flight and mixes two bytes. The
// streams' PayloadFNV checks cannot see that, since the hash is taken at
// ingest, before egress. Run under -race.
func TestSharedPoolCrossStreamIsolation(t *testing.T) {
	const clients, rounds = 6, 3
	base := makeClient(t, testTrace(t, 24))
	sink := &uniformSink{}
	srv, addr := startServer(t, Config{
		// Room for every stream at once: a client's next hello may
		// arrive while its previous stream still drains through egress.
		LinkRate: clients * rounds * base.hello.PeakRate,
		Egress:   sink,
	})

	var streamBytes int64
	for _, p := range base.payloads {
		streamBytes += int64(len(p))
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				kit := *base
				fill := byte(1 + c*rounds + r)
				kit.payloads = make([][]byte, len(base.payloads))
				for i, p := range base.payloads {
					kit.payloads[i] = make([]byte, len(p))
					for j := range kit.payloads[i] {
						kit.payloads[i][j] = fill
					}
				}
				v, err := kit.stream(t.Context(), addr)
				if err == nil && !v.IsAdmitted() {
					err = fmt.Errorf("verdict %+v", v)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	waitFor(t, "all streams drained", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == clients*rounds && s.Streams.Active == 0
	})

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.mixed != 0 {
		t.Fatalf("%d of %d egress writes mixed two streams' bytes; first: %s", sink.mixed, sink.writes, sink.example)
	}
	if want := int64(clients*rounds) * streamBytes; sink.bytes != want {
		t.Fatalf("egressed %d bytes, want %d", sink.bytes, want)
	}
}
