// Payload buffer pooling for the frame hot path. A saturated smoothd
// ingests tens of thousands of pictures per second; allocating a fresh
// payload buffer per frame makes the garbage collector a rate policer
// of its own. BufferPool recycles payload buffers across frames: the
// reader takes one sized to the announced picture, the server returns
// it after the decision step (egress sent, or duplicate dropped).
//
// One pool serves a whole server, so a short stream starts warm on the
// buffers every earlier stream returned. Buffers live in power-of-two
// size classes: a picture of n bytes takes a buffer of capacity
// 2^ceil(log2 n), so any returned buffer fits every later picture of
// its class and Get never scans.
package transport

import (
	"math/bits"
	"sync"
)

// Size classes span minPooledShift..maxPooledShift: the smallest class
// holds the smallest pictures (B pictures of a few hundred bytes) and
// the largest is MaxPictureBytes, the wire bound on a payload.
const (
	minPooledShift = 8
	maxPooledShift = 24
	pooledClasses  = maxPooledShift - minPooledShift + 1
)

// maxPooledPerClass bounds how many idle buffers each size class
// retains; beyond this, Put drops the buffer for the collector. The
// bound keeps a burst of large pictures from pinning memory forever.
const maxPooledPerClass = 64

// BufferPool recycles picture payload buffers. Each size class is a
// concrete mutex-guarded LIFO rather than a sync.Pool: payload lifetimes
// span goroutines (reader → decision → egress), which defeats
// sync.Pool's per-P caching, and a typed [][]byte freelist avoids
// boxing the slice header on every Put. The zero value is ready to use
// and safe for concurrent use by any number of readers.
type BufferPool struct {
	classes [pooledClasses]poolClass
}

type poolClass struct {
	mu   sync.Mutex
	free [][]byte
}

// sizeClass returns the class index whose buffers hold size bytes, or
// -1 for sizes beyond the largest class.
func sizeClass(size int) int {
	if size <= 1<<minPooledShift {
		return 0
	}
	shift := bits.Len(uint(size - 1))
	if shift > maxPooledShift {
		return -1
	}
	return shift - minPooledShift
}

// Get returns a buffer with len == size: the most recently returned
// buffer of size's class, or a fresh one of the class's full capacity.
// A size beyond the largest class gets an unpooled exact allocation.
func (p *BufferPool) Get(size int) []byte {
	c := sizeClass(size)
	if c < 0 {
		return make([]byte, size)
	}
	pc := &p.classes[c]
	pc.mu.Lock()
	if n := len(pc.free); n > 0 {
		b := pc.free[n-1]
		pc.free[n-1] = nil
		pc.free = pc.free[:n-1]
		pc.mu.Unlock()
		return b[:size]
	}
	pc.mu.Unlock()
	return make([]byte, size, 1<<(c+minPooledShift))
}

// Put returns a buffer to its size class. A buffer whose capacity is
// not exactly a class size (one Get did not hand out, or an oversized
// one) is dropped, as is everything past the class's retention bound.
func (p *BufferPool) Put(b []byte) {
	c := sizeClass(cap(b))
	if c < 0 || cap(b) != 1<<(c+minPooledShift) {
		return
	}
	pc := &p.classes[c]
	pc.mu.Lock()
	if len(pc.free) < maxPooledPerClass {
		pc.free = append(pc.free, b[:0])
	}
	pc.mu.Unlock()
}
