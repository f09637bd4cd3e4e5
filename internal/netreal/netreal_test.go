package netreal

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// pipePair returns two adapted ends of an in-process net.Pipe.
func pipePair() (*Conn, net.Conn) {
	a, b := net.Pipe()
	return WrapOptions(a, Options{}), b
}

func waitReadable(t *testing.T, c *Conn) {
	t.Helper()
	done := make(chan struct{})
	c.ArmRead(func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("connection never became readable")
	}
}

func TestTryReadAfterPump(t *testing.T) {
	c, peer := pipePair()
	defer c.Close()
	go peer.Write([]byte("hello"))
	waitReadable(t, c)
	var buf [16]byte
	n, err := c.TryRead(buf[:])
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("TryRead = %q, %v", buf[:n], err)
	}
	// Drained: would-block.
	n, err = c.TryRead(buf[:])
	if n != 0 || err != nil {
		t.Fatalf("empty TryRead = %d, %v", n, err)
	}
}

func TestEOF(t *testing.T) {
	c, peer := pipePair()
	defer c.Close()
	go func() {
		peer.Write([]byte("x"))
		peer.Close()
	}()
	deadline := time.Now().Add(2 * time.Second)
	var got []byte
	for {
		var buf [8]byte
		n, err := c.TryRead(buf[:])
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no EOF; got %q", got)
		}
		time.Sleep(time.Millisecond)
	}
	if string(got) != "x" {
		t.Fatalf("data before EOF = %q", got)
	}
}

func TestArmReadOneShot(t *testing.T) {
	c, peer := pipePair()
	defer c.Close()
	var fires atomic.Int32
	c.ArmRead(func() { fires.Add(1) })
	peer.Write([]byte("a"))
	deadline := time.Now().Add(time.Second)
	for fires.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("armed callback never fired")
		}
		time.Sleep(time.Millisecond)
	}
	// Second write without re-arming must not re-fire.
	peer.Write([]byte("b"))
	time.Sleep(5 * time.Millisecond)
	if fires.Load() != 1 {
		t.Fatalf("one-shot fired %d times", fires.Load())
	}
	// Immediate fire when data is already pending.
	fired := false
	c.ArmRead(func() { fired = true })
	if !fired {
		t.Fatal("ArmRead with pending data did not fire synchronously")
	}

	// The read path arms the SAME func value for every wait: once it
	// has fired, arming it again is a fresh one-shot registration (the
	// connection kept no reference), and it fires once per arming.
	var buf [8]byte
	if n, _ := c.TryRead(buf[:]); n != 2 {
		t.Fatalf("drained %d bytes, want 2", n)
	}
	var same atomic.Int32
	fn := func() { same.Add(1) }
	for round := int32(1); round <= 3; round++ {
		c.ArmRead(fn)
		if got := same.Load(); got != round-1 {
			t.Fatalf("round %d: fired %d times before any data", round, got)
		}
		peer.Write([]byte("c"))
		deadline := time.Now().Add(time.Second)
		for same.Load() != round {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: re-armed callback fired %d times", round, same.Load())
			}
			time.Sleep(time.Millisecond)
		}
		if n, _ := c.TryRead(buf[:]); n != 1 {
			t.Fatalf("round %d: drained %d bytes, want 1", round, n)
		}
	}
	// Armed twice without firing in between is still a bug.
	c.ArmRead(fn)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second ArmRead while armed did not panic")
			}
		}()
		c.ArmRead(fn)
	}()
}

func TestWriteRoundTrip(t *testing.T) {
	c, peer := pipePair()
	defer c.Close()
	go func() {
		var buf [8]byte
		n, _ := peer.Read(buf[:])
		peer.Write(buf[:n]) // echo
	}()
	if _, err := c.WriteString("ping"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitReadable(t, c)
	var buf [8]byte
	n, _ := c.TryRead(buf[:])
	if string(buf[:n]) != "ping" {
		t.Fatalf("echo = %q", buf[:n])
	}
}
