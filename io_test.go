package icilk

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"icilk/internal/netreal"
	"icilk/internal/netsim"
)

// Compile-time checks: both connection implementations satisfy Conn.
var (
	_ Conn = (*netsim.Endpoint)(nil)
	_ Conn = (*netreal.Conn)(nil)
)

func TestLineReaderSplitAcrossFills(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	cli, srv := netsim.Pipe()
	go func() {
		// A line and a block, dribbled byte by byte across the CRLF
		// boundaries.
		payload := "set x 0 0 3\r\nabc\r\nnext\r\n"
		for i := 0; i < len(payload); i++ {
			cli.WriteString(payload[i : i+1])
			time.Sleep(100 * time.Microsecond)
		}
	}()
	got := rt.Run(func(task *Task) any {
		lr := rt.NewLineReader(srv)
		line, err := lr.ReadLineBytes(task)
		if err != nil {
			return err
		}
		out := string(line)
		block, err := lr.ReadExactBytes(task, 3+2)
		if err != nil {
			return err
		}
		out += "|" + string(block)
		line, err = lr.ReadLineBytes(task)
		if err != nil {
			return err
		}
		return out + "|" + string(line)
	})
	if got != "set x 0 0 3|abc\r\n|next" {
		t.Fatalf("got %v", got)
	}
}

func TestLineReaderEOFMidLine(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	cli, srv := netsim.Pipe()
	cli.WriteString("unterminated")
	cli.Close()
	got := rt.Run(func(task *Task) any {
		lr := rt.NewLineReader(srv)
		_, err := lr.ReadLineBytes(task)
		return err
	})
	if got != io.EOF {
		t.Fatalf("err = %v, want EOF", got)
	}
}

// TestLineReaderLineTooLong: a peer that never sends a newline gets
// ErrLineTooLong once the bound is buffered, not a buffer that doubles
// for as long as it keeps sending; a line just under the bound, and
// the one after it, still read.
func TestLineReaderLineTooLong(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	cli, srv := netsim.Pipe()
	long := strings.Repeat("a", maxLineBytes-2)
	cli.WriteString(long + "\r\nnext\n" + strings.Repeat("b", 2*maxLineBytes))
	got := rt.Run(func(task *Task) any {
		lr := rt.NewLineReader(srv)
		if line, err := lr.ReadLineBytes(task); err != nil || string(line) != long {
			return fmt.Errorf("long line: %d bytes, err %v", len(line), err)
		}
		if line, err := lr.ReadLineBytes(task); err != nil || string(line) != "next" {
			return fmt.Errorf("second line: %q, err %v", line, err)
		}
		_, err := lr.ReadLineBytes(task)
		if cap(lr.buf) > 2*maxLineBytes {
			return fmt.Errorf("buffer grew to %d bytes", cap(lr.buf))
		}
		return err
	})
	if got != ErrLineTooLong {
		t.Fatalf("err = %v, want ErrLineTooLong", got)
	}
}

func TestLineReaderEOFMidBlock(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	cli, srv := netsim.Pipe()
	cli.WriteString("ab") // block needs 4+2 bytes
	cli.Close()
	got := rt.Run(func(task *Task) any {
		lr := rt.NewLineReader(srv)
		_, err := lr.ReadExactBytes(task, 4+2)
		return err
	})
	if got != io.EOF {
		t.Fatalf("err = %v, want EOF", got)
	}
}

func TestReadExactSpansChunks(t *testing.T) {
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	cli, srv := netsim.Pipe()
	go func() {
		big := make([]byte, 2000)
		for i := range big {
			big[i] = byte(i % 251)
		}
		// Two writes, splitting the frame.
		cli.Write(big[:700])
		time.Sleep(time.Millisecond)
		cli.Write(big[700:])
	}()
	got := rt.Run(func(task *Task) any {
		lr := rt.NewLineReader(srv)
		b, err := lr.ReadExactBytes(task, 2000)
		if err != nil {
			return err
		}
		for i := range b {
			if b[i] != byte(i%251) {
				return i
			}
		}
		return "ok"
	})
	if got != "ok" {
		t.Fatalf("got %v", got)
	}
}

func TestConcurrentConnectionsShareWorker(t *testing.T) {
	// One worker serving 8 connections: every request must still get
	// a response (the scheduler time-multiplexes via I/O futures).
	rt := newRT(t, Config{Workers: 1, Levels: 1})
	const conns = 8
	type pair struct{ cli, srv *netsim.Endpoint }
	ps := make([]pair, conns)
	for i := range ps {
		ps[i].cli, ps[i].srv = netsim.Pipe()
		srv := ps[i].srv
		rt.Submit(0, func(task *Task) any {
			lr := rt.NewLineReader(srv)
			for {
				line, err := lr.ReadLineBytes(task)
				if err != nil {
					return nil
				}
				srv.WriteString("echo:" + string(line) + "\n")
			}
		})
	}
	for round := 0; round < 5; round++ {
		for i := range ps {
			ps[i].cli.WriteString("ping\n")
		}
		for i := range ps {
			var buf [32]byte
			n, err := ps[i].cli.Read(buf[:])
			if err != nil || string(buf[:n]) != "echo:ping\n" {
				t.Fatalf("conn %d round %d: %q, %v", i, round, buf[:n], err)
			}
		}
	}
	for i := range ps {
		ps[i].cli.Close()
	}
}
