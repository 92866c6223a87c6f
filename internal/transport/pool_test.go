package transport

import (
	"sync"
	"testing"
)

func TestBufferPoolSizeClasses(t *testing.T) {
	var p BufferPool
	for _, tc := range []struct{ size, cap int }{
		{1, 256}, {256, 256}, {257, 512}, {4096, 4096}, {4097, 8192},
		{40000, 65536}, {MaxPictureBytes, MaxPictureBytes},
		{MaxPictureBytes + 1, MaxPictureBytes + 1}, // beyond every class: exact
	} {
		b := p.Get(tc.size)
		if len(b) != tc.size || cap(b) != tc.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", tc.size, len(b), cap(b), tc.size, tc.cap)
		}
	}
	// A returned buffer serves any later size of its class, and only
	// that class.
	b := p.Get(5000)
	p.Put(b)
	if c := p.Get(3000); cap(c) == cap(b) {
		t.Errorf("Get(3000) took the 8 KiB-class buffer")
	}
	if c := p.Get(8192); &c[:1][0] != &b[:1][0] {
		t.Errorf("Get(8192) did not reuse the returned 8 KiB-class buffer")
	}
}

func TestBufferPoolDropsForeignBuffers(t *testing.T) {
	var p BufferPool
	for _, b := range [][]byte{
		nil,
		make([]byte, 3000),                  // not a class size
		make([]byte, 100, 128),              // below the smallest class
		make([]byte, 10, 2*MaxPictureBytes), // a power of two beyond the largest class
		make([]byte, MaxPictureBytes+1),     // oversized, as Get hands out beyond the classes
	} {
		p.Put(b)
	}
	for c := range p.classes {
		if n := len(p.classes[c].free); n != 0 {
			t.Errorf("class %d retained %d foreign buffers", c, n)
		}
	}
}

func TestBufferPoolRetentionBounded(t *testing.T) {
	var p BufferPool
	held := make([][]byte, 0, 3*maxPooledPerClass)
	for i := 0; i < cap(held); i++ {
		held = append(held, p.Get(1000))
	}
	for _, b := range held {
		p.Put(b)
	}
	c := sizeClass(1000)
	if n := len(p.classes[c].free); n != maxPooledPerClass {
		t.Fatalf("class retained %d buffers, want the bound %d", n, maxPooledPerClass)
	}
	for other := range p.classes {
		if other != c && len(p.classes[other].free) != 0 {
			t.Fatalf("class %d holds buffers it was never given", other)
		}
	}
}

// TestBufferPoolConcurrent exercises one pool from many goroutines, as
// every stream of a server shares it; run under -race. A buffer is
// never handed to two holders at once: each holder stamps its buffer
// and checks the stamp survived before returning it.
func TestBufferPoolConcurrent(t *testing.T) {
	var p BufferPool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := p.Get(300 + (g*977+i*131)%20000)
				for j := range b {
					b[j] = byte(g)
				}
				for j := range b {
					if b[j] != byte(g) {
						t.Errorf("goroutine %d: buffer shared with another holder", g)
						return
					}
				}
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
}
