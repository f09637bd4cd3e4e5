package netreal

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestStressRecycledChunks pushes several megabytes through the
// pooled chunk queue while the consumer races the pump — TryRead and
// ArmRead interleave with socket reads, chunks recycle through the
// pool mid-stream, and every byte must come out in order. Run with
// -race, this is the recycling path's data-race check.
func TestStressRecycledChunks(t *testing.T) {
	a, b := net.Pipe()
	stats := &Stats{}
	c := WrapOptions(a, Options{Stats: stats})
	defer c.Close()

	const total = 8 << 20 // 512 chunks' worth
	werr := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		var seq byte
		sent := 0
		for sent < total {
			n := len(buf)
			if total-sent < n {
				n = total - sent
			}
			for i := 0; i < n; i++ {
				buf[i] = seq
				seq++
			}
			if _, err := b.Write(buf[:n]); err != nil {
				werr <- err
				return
			}
			sent += n
		}
		b.Close()
		werr <- nil
	}()

	var want byte
	received := 0
	buf := make([]byte, 1500) // deliberately not chunk-aligned
	deadline := time.Now().Add(30 * time.Second)
	for {
		n, err := c.TryRead(buf)
		for i := 0; i < n; i++ {
			if buf[i] != want {
				t.Fatalf("byte %d = %#x, want %#x", received+i, buf[i], want)
			}
			want++
		}
		received += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			fired := make(chan struct{})
			c.ArmRead(func() { close(fired) })
			select {
			case <-fired:
			case <-time.After(time.Until(deadline)):
				t.Fatalf("stalled at %d/%d bytes", received, total)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout at %d/%d bytes", received, total)
		}
	}
	if received != total {
		t.Fatalf("received %d bytes, want %d", received, total)
	}
	if err := <-werr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	// The stream crossed hundreds of chunk boundaries; recycling must
	// have produced pool hits (a miss mints a chunk, a hit reuses one
	// the consumer drained earlier).
	if stats.PoolHits() == 0 {
		t.Errorf("pool hits = 0 (misses %d): chunks never recycled", stats.PoolMisses())
	}
	if stats.ReadBytes() != total {
		t.Errorf("ReadBytes = %d, want %d", stats.ReadBytes(), total)
	}
}

// TestBackpressurePausesOncePerEpisode floods a connection past the
// soft cap without consuming: the pump must park (counting one pause
// for the episode, not one per wakeup), resume when the consumer
// drains, and deliver every byte.
func TestBackpressurePausesOncePerEpisode(t *testing.T) {
	a, b := net.Pipe()
	stats := &Stats{}
	c := WrapOptions(a, Options{Stats: stats})
	defer c.Close()

	const total = bufferSoftCap + 8*chunkSize
	werr := make(chan error, 1)
	go func() {
		buf := make([]byte, 32<<10)
		sent := 0
		for sent < total {
			n := len(buf)
			if total-sent < n {
				n = total - sent
			}
			if _, err := b.Write(buf[:n]); err != nil {
				werr <- err
				return
			}
			sent += n
		}
		b.Close()
		werr <- nil
	}()

	// Let the pump fill to the cap and park.
	deadline := time.Now().Add(10 * time.Second)
	for stats.Pauses() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pump never paused (buffered %d)", stats.Buffered())
		}
		time.Sleep(time.Millisecond)
	}
	if got := stats.Buffered(); got < bufferSoftCap {
		t.Errorf("paused with only %d buffered, cap %d", got, bufferSoftCap)
	}

	// Drain everything; the pump resumes and finishes the stream.
	received := 0
	buf := make([]byte, 64<<10)
	for {
		n, err := c.TryRead(buf)
		received += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			fired := make(chan struct{})
			c.ArmRead(func() { close(fired) })
			select {
			case <-fired:
			case <-time.After(5 * time.Second):
				t.Fatalf("stalled at %d/%d bytes after pause", received, total)
			}
		}
	}
	if received != total {
		t.Fatalf("received %d bytes, want %d", received, total)
	}
	if err := <-werr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	// One sustained overrun is one episode: the pause counter must not
	// have spun once per condition-variable wakeup.
	if p := stats.Pauses(); p < 1 || p > 8 {
		t.Errorf("pauses = %d, want a small per-episode count", p)
	}
}

// TestDrainedConnectionReleasesChunks checks the satellite contract:
// once the peer closes and the consumer drains, the connection holds
// no chunk memory (the whole queue went back to the pool) while EOF
// keeps being reported.
func TestDrainedConnectionReleasesChunks(t *testing.T) {
	a, b := net.Pipe()
	stats := &Stats{}
	c := WrapOptions(a, Options{Stats: stats})
	defer c.Close()

	const total = 5 * chunkSize
	go func() {
		buf := make([]byte, total)
		b.Write(buf)
		b.Close()
	}()

	received := 0
	buf := make([]byte, 4096)
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, err := c.TryRead(buf)
		received += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			fired := make(chan struct{})
			c.ArmRead(func() { close(fired) })
			select {
			case <-fired:
			case <-time.After(time.Until(deadline)):
				t.Fatalf("stalled at %d/%d bytes", received, total)
			}
		}
	}
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}

	c.mu.Lock()
	head, tail, buffered := c.head, c.tail, c.buffered
	c.mu.Unlock()
	if head != nil || tail != nil || buffered != 0 {
		t.Errorf("drained conn retains chunks: head=%p tail=%p buffered=%d", head, tail, buffered)
	}
	if stats.Buffered() != 0 {
		t.Errorf("stats.Buffered() = %d after drain", stats.Buffered())
	}
	// EOF stays sticky on further reads.
	if n, err := c.TryRead(buf); n != 0 || err != io.EOF {
		t.Errorf("post-drain TryRead = %d, %v; want 0, EOF", n, err)
	}
}
