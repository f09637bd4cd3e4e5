package jobserver

import (
	"fmt"
	"sync"

	"icilk"
	"icilk/internal/invariant"
	"icilk/internal/xrand"
)

// Config sizes the four job classes, scaled down from the paper's
// 20-core testbed. The defaults are not in SJF order by run time:
// solo on one worker of a 2-vCPU Xeon guest, mm takes ~40 µs, fib
// ~160 µs, sort ~1.3 ms and sw ~150 µs. Figures 4 and 6 run them, so
// they stay. A zero field takes its default.
type Config struct {
	MMSize   int // matrix dimension (any positive size; edge tiles are clamped)
	FibN     int
	SortSize int
	SWSize   int // sequence length
}

// DefaultConfig returns the calibrated default sizes.
func DefaultConfig() Config {
	return Config{MMSize: 32, FibN: 21, SortSize: 16 << 10, SWSize: 192}
}

// Server submits the four parallel job classes at their SJF priority
// levels.
type Server struct {
	rt  *icilk.Runtime
	cfg Config

	// Per-class scratch sized from cfg; run says who owns one when.
	mm, sort, sw sync.Pool
	reqs         sync.Pool // *jobReq
}

// One request's inputs and work arrays, per class.
type (
	mmScratch struct {
		a, b, c []float64
		n, nt   int       // matrix edge and tiles per edge
		tileFn  func(int) // s.tile, bound by newMMScratch
	}
	sortScratch struct{ xs, tmp []int64 }
	swScratch   struct {
		p, q  []byte
		h     []int32       // DP matrix with an extra zero row and column
		tiles []swTileFrame // the spawned tiles of one anti-diagonal
	}
)

// newMMScratch returns the scratch for multiplying n×n matrices a and b
// into c.
func newMMScratch(a, b, c []float64, n int) *mmScratch {
	s := &mmScratch{a: a, b: b, c: c, n: n, nt: (n + mmTile - 1) / mmTile}
	s.tileFn = s.tile
	return s
}

// newSWScratch returns the scratch for aligning p with q. A diagonal
// spawns all of its tiles but one, so at most min(len(p), len(q))/swTile.
func newSWScratch(p, q []byte) *swScratch {
	return &swScratch{p: p, q: q,
		h:     make([]int32, (len(p)+1)*(len(q)+1)),
		tiles: make([]swTileFrame, min(len(p), len(q))/swTile)}
}

// New creates a job server over rt, which must have at least Levels
// priority levels. Zero sizes in cfg take DefaultConfig's; negative
// ones are an error.
func New(rt *icilk.Runtime, cfg Config) (*Server, error) {
	if rt.Levels() < Levels {
		return nil, fmt.Errorf("jobserver: runtime has %d levels, need %d", rt.Levels(), Levels)
	}
	def := DefaultConfig()
	defaults := [Levels]int{def.MMSize, def.FibN, def.SortSize, def.SWSize}
	for i, size := range [Levels]*int{&cfg.MMSize, &cfg.FibN, &cfg.SortSize, &cfg.SWSize} {
		if *size < 0 {
			return nil, fmt.Errorf("jobserver: %s size %d is negative", OpNames[i], *size)
		}
		if *size == 0 {
			*size = defaults[i]
		}
	}
	s := &Server{rt: rt, cfg: cfg}
	s.mm.New = func() any {
		n := s.cfg.MMSize
		return newMMScratch(make([]float64, n*n), make([]float64, n*n), make([]float64, n*n), n)
	}
	s.sort.New = func() any {
		return &sortScratch{make([]int64, s.cfg.SortSize), make([]int64, s.cfg.SortSize)}
	}
	s.sw.New = func() any {
		return newSWScratch(make([]byte, s.cfg.SWSize), make([]byte, s.cfg.SWSize))
	}
	s.reqs.New = func() any {
		r := &jobReq{s: s}
		r.fn = r.run
		return r
	}
	return s, nil
}

// jobReq is one request in record form, where a closure over (s,
// class, seq) would be a heap object per request. fn is r.run, bound
// when the record is made: a method value taken per request would
// allocate again.
type jobReq struct {
	s     *Server
	class int
	seq   int64
	fn    func(*icilk.Task) any
}

// Job describes one job of the given class (0=mm, 1=fib, 2=sort,
// anything else sw) with a deterministic input derived from seq: its
// priority level and its task body, which returns a checksum of the
// job's result. Do submits it as is; a caller gating the server passes
// the two to its admission controller's Submit. A job that never runs
// (shed, or cancelled while queued) leaves its record to the GC.
func (s *Server) Job(class int, seq int64) (level int, fn func(*icilk.Task) any) {
	r := s.reqs.Get().(*jobReq)
	r.class, r.seq = class, seq
	// The classes are numbered in SJF order: a class is its level.
	level = LevelSW
	if class >= LevelMM && class < LevelSW {
		level = class
	}
	return level, r.fn
}

// run is the task body. The record has done its work once class and
// seq are read, so it goes back to the pool before the job starts.
//
// A job owns its scratch from Get to its normal return and recycles it
// there, never from a defer: a cancellation unwinds through the body
// before the runtime has joined what it spawned on the root frame
// (sw's tiles), and a deferred Put would hand the next request buffers
// those children still write. An unwound job's scratch is dropped.
func (r *jobReq) run(t *icilk.Task) any {
	s, class, seq := r.s, r.class, r.seq
	s.reqs.Put(r)
	switch class {
	case 0:
		return s.runMM(t, seq)
	case 1:
		return Fib(t, s.cfg.FibN)
	case 2:
		return s.runSort(t, seq)
	default:
		return s.runSW(t, seq)
	}
}

func (s *Server) runMM(t *icilk.Task, seq int64) float64 {
	sc := s.mm.Get().(*mmScratch)
	fillMatrix(sc.a, uint64(seq))
	fillMatrix(sc.b, uint64(seq)+1)
	mmInto(t, sc)
	var sum float64
	for _, v := range sc.c {
		sum += v
	}
	recycle(&s.mm, sc)
	return sum
}

func (s *Server) runSort(t *icilk.Task, seq int64) int64 {
	sc := s.sort.Get().(*sortScratch)
	xs := sc.xs
	fillInts(xs, uint64(seq))
	mergesort(t, xs, sc.tmp)
	// Checksum that also certifies sortedness.
	var sum int64
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			panic("jobserver: sort produced unsorted output")
		}
		sum += xs[i] * int64(i%7)
	}
	recycle(&s.sort, sc)
	return sum
}

func (s *Server) runSW(t *icilk.Task, seq int64) int {
	sc := s.sw.Get().(*swScratch)
	fillSeq(sc.p, uint64(seq))
	fillSeq(sc.q, uint64(seq)+7)
	best := swInto(t, sc)
	recycle(&s.sw, sc)
	return best
}

// Do submits one job of the given class and returns its future.
func (s *Server) Do(class int, seq int64) *icilk.Future {
	return s.rt.Submit(s.Job(class, seq))
}

// fillMatrix, fillInts and fillSeq overwrite a buffer with the input
// of the given seed; the generator stays on the stack.
func fillMatrix(m []float64, seed uint64) {
	var r xrand.Rand
	r.Seed(seed)
	for i := range m {
		m[i] = r.Float64()
	}
}

func fillInts(xs []int64, seed uint64) {
	var r xrand.Rand
	r.Seed(seed)
	for i := range xs {
		xs[i] = r.Int63()
	}
}

func fillSeq(s []byte, seed uint64) {
	var r xrand.Rand
	r.Seed(seed)
	const alphabet = "ACGT"
	for i := range s {
		s[i] = alphabet[r.Intn(4)]
	}
}

// recycle returns a scratch to its pool, in icilk_debug builds
// poisoned first (0xdb, as memcached's shard.release does): a job that
// relies on what the last owner left returns a wrong checksum, and a
// task still using a scratch its job gave up races with the poison.
func recycle(pool *sync.Pool, sc interface{ poison() }) {
	if invariant.Enabled {
		sc.poison()
	}
	pool.Put(sc)
}

func (s *mmScratch) poison() { poisonFill(s.a, s.b, s.c) }

func (s *sortScratch) poison() { poisonFill(s.xs, s.tmp) }

// poison spares h's border, the one part of the scratch the next owner
// does rely on.
func (s *swScratch) poison() {
	poisonFill(s.p, s.q)
	stride := len(s.q) + 1
	for i := 1; i <= len(s.p); i++ {
		poisonFill(s.h[i*stride+1 : (i+1)*stride])
	}
}

func poisonFill[T byte | int32 | int64 | float64](bufs ...[]T) {
	for _, buf := range bufs {
		for i := range buf {
			buf[i] = 0xdb
		}
	}
}
