package memcached

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"icilk/internal/netsim"
	"icilk/internal/stats"
	"icilk/internal/xrand"
)

// WorkloadConfig parameterizes the load generator, following the
// shape of the Memcached driver of Palit et al. that the paper uses:
// a fixed number of client connections, open-loop Poisson arrivals at
// a target aggregate RPS, Zipf-popular keys, and a get-heavy mix.
type WorkloadConfig struct {
	// Connections is the number of concurrent client connections
	// (the paper fixes 600 while binary-searching RPS).
	Connections int
	// RPS is the aggregate target request rate.
	RPS float64
	// Duration is the measurement window.
	Duration time.Duration
	// KeySpace is the number of distinct keys (preloaded).
	KeySpace int
	// ValueSize is the value payload size in bytes.
	ValueSize int
	// GetFraction is the fraction of requests that are gets (the rest
	// are sets). Default 0.9.
	GetFraction float64
	// ZipfS is the key-popularity skew (>1). Default 1.1.
	ZipfS float64
	// Seed makes the workload reproducible.
	Seed uint64
	// Warmup discards latency samples for requests scheduled within
	// this span after start (the load still runs; only measurement is
	// suppressed). Throughput counters include warmup traffic.
	Warmup time.Duration
}

func (c *WorkloadConfig) applyDefaults() {
	if c.Connections <= 0 {
		c.Connections = 32
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 4096
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 64
	}
	if c.GetFraction <= 0 {
		c.GetFraction = 0.9
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
}

// KeyName formats the i-th key.
func KeyName(i uint64) string { return string(AppendKeyName(nil, i)) }

// AppendKeyName appends the i-th key's name ("key:%08d") to dst — the
// load generator's allocation-free key encoding.
func AppendKeyName(dst []byte, i uint64) []byte {
	dst = append(dst, "key:"...)
	var tmp [20]byte
	s := strconv.AppendUint(tmp[:0], i, 10)
	for pad := 8 - len(s); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

// Preload populates the store directly with the working set so the
// measured run sees a warm cache. Each key is encoded into one reused
// buffer, so a key costs the store's insert and nothing else.
func Preload(s *Store, cfg WorkloadConfig) {
	cfg.applyDefaults()
	val := makeValue(cfg.ValueSize, 0)
	var key []byte
	for i := 0; i < cfg.KeySpace; i++ {
		key = AppendKeyName(key[:0], uint64(i))
		s.SetB(ModeSet, key, val, 0, 0, 0)
	}
}

// makeValue builds a deterministic payload.
func makeValue(size int, salt byte) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = 'a' + (byte(i)+salt)%26
	}
	return v
}

// LoadResult is the measured outcome of a load run.
type LoadResult struct {
	Latency   *stats.Recorder
	Sent      int64
	Completed int64
	Errors    int64
}

// pendingReq tracks one in-flight request on a connection.
type pendingReq struct {
	scheduled time.Time // open-loop scheduled arrival (latency epoch)
	isGet     bool
}

// lineScanner is a minimal blocking line reader over a connection for
// the client side (clients are plain goroutines, outside the runtime).
type lineScanner struct {
	ep  io.Reader
	buf []byte
	pos int
}

// readLine returns the next line (CRLF stripped) as a view into the
// scanner's buffer, valid only until the next readLine call. The
// socket is read directly into the buffer's spare capacity, so the
// steady state allocates nothing.
func (ls *lineScanner) readLine() ([]byte, error) {
	for {
		for i := ls.pos; i < len(ls.buf); i++ {
			if ls.buf[i] == '\n' {
				line := ls.buf[ls.pos:i]
				ls.pos = i + 1
				if len(line) > 0 && line[len(line)-1] == '\r' {
					line = line[:len(line)-1]
				}
				return line, nil
			}
		}
		if ls.pos > 0 {
			rest := copy(ls.buf, ls.buf[ls.pos:])
			ls.buf = ls.buf[:rest]
			ls.pos = 0
		}
		if len(ls.buf) == cap(ls.buf) {
			grown := make([]byte, len(ls.buf), max(2*cap(ls.buf), 4096))
			copy(grown, ls.buf)
			ls.buf = grown
		}
		n, err := ls.ep.Read(ls.buf[len(ls.buf):cap(ls.buf)])
		if n > 0 {
			ls.buf = ls.buf[:len(ls.buf)+n]
			continue
		}
		if err != nil {
			return nil, err
		}
	}
}

// RunLoad drives the server behind ln with the configured workload
// and returns latency measurements. Latency is measured from each
// request's *scheduled* arrival time (open-loop convention, so server
// overload shows up as queueing delay rather than silently slowing
// the generator).
func RunLoad(ln *netsim.Listener, cfg WorkloadConfig) (*LoadResult, error) {
	cfg.applyDefaults()
	res := &LoadResult{Latency: stats.NewRecorder(int(cfg.RPS * cfg.Duration.Seconds()))}
	rootRNG := xrand.New(cfg.Seed)

	var sent, completed, errors atomic.Int64
	var wg sync.WaitGroup
	perConnRate := cfg.RPS / float64(cfg.Connections)
	if perConnRate <= 0 {
		return nil, fmt.Errorf("memcached: non-positive RPS")
	}
	meanGap := time.Duration(float64(time.Second) / perConnRate)

	// Connect everything before starting the clock: at thousands of
	// connections a serial dial phase would eat the measurement window
	// (every sender's deadline is start+Duration). Dials run with
	// bounded concurrency so the server's accept loop sees a burst it
	// can absorb.
	conns := make([]*netsim.Endpoint, cfg.Connections)
	dialErrs := make(chan error, cfg.Connections)
	sem := make(chan struct{}, 64)
	var dialWG sync.WaitGroup
	for i := range conns {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ep, err := ln.Dial()
			if err != nil {
				dialErrs <- err
				return
			}
			conns[i] = ep
		}(i)
	}
	dialWG.Wait()
	select {
	case err := <-dialErrs:
		for _, ep := range conns {
			if ep != nil {
				ep.Close()
			}
		}
		return nil, err
	default:
	}

	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)

	for c := 0; c < cfg.Connections; c++ {
		ep := conns[c]
		rng := rootRNG.Split()
		zipf := xrand.NewZipf(rng, cfg.ZipfS, uint64(cfg.KeySpace))
		pending := make(chan pendingReq, 65536)

		// Sender: paced, open-loop.
		wg.Add(1)
		go func(ep *netsim.Endpoint) {
			defer wg.Done()
			defer close(pending)
			val := makeValue(cfg.ValueSize, byte(ep.ID))
			var req []byte // reused request-encoding scratch
			next := time.Now()
			deadline := start.Add(cfg.Duration)
			for {
				gap := time.Duration(rng.Exp(float64(meanGap)))
				next = next.Add(gap)
				if next.After(deadline) {
					return
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				key := zipf.Uint64()
				isGet := rng.Float64() < cfg.GetFraction
				if isGet {
					req = append(req[:0], "get "...)
					req = AppendKeyName(req, key)
					req = append(req, '\r', '\n')
				} else {
					req = append(req[:0], "set "...)
					req = AppendKeyName(req, key)
					req = append(req, " 0 0 "...)
					req = strconv.AppendInt(req, int64(len(val)), 10)
					req = append(req, '\r', '\n')
					req = append(req, val...)
					req = append(req, '\r', '\n')
				}
				pending <- pendingReq{scheduled: next, isGet: isGet}
				// The connection copies (or finishes sending) what it
				// writes, so req is reusable as soon as Write returns.
				if _, err := ep.Write(req); err != nil {
					errors.Add(1)
					return
				}
				sent.Add(1)
			}
		}(ep)

		// Receiver: parse responses in order, record latency.
		wg.Add(1)
		go func(ep *netsim.Endpoint) {
			defer wg.Done()
			defer ep.Close()
			ls := &lineScanner{ep: ep}
			for p := range pending {
				ok := true
				if p.isGet {
					for {
						line, err := ls.readLine()
						if err != nil {
							errors.Add(1)
							return
						}
						if string(line) == "END" {
							break
						}
						if len(line) >= 6 && string(line[:6]) == "VALUE " {
							// The value block is one "line" for our
							// scanner (payloads contain no newlines).
							if _, err := ls.readLine(); err != nil {
								errors.Add(1)
								return
							}
							continue
						}
						ok = false
						break
					}
				} else {
					line, err := ls.readLine()
					if err != nil {
						errors.Add(1)
						return
					}
					ok = string(line) == "STORED"
				}
				if !ok {
					errors.Add(1)
					continue
				}
				lat := time.Since(p.scheduled)
				if p.scheduled.After(measureFrom) {
					res.Latency.Record(lat)
				}
				completed.Add(1)
			}
		}(ep)
	}

	wg.Wait()
	res.Sent = sent.Load()
	res.Completed = completed.Load()
	res.Errors = errors.Load()
	if res.Errors > 0 && res.Completed == 0 {
		return res, io.ErrUnexpectedEOF
	}
	return res, nil
}
