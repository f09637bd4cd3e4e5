package jobserver

import (
	"fmt"

	"icilk"
	"icilk/internal/predict"
	"icilk/internal/xrand"
)

// Config sizes the four job classes. The defaults are calibrated so
// the classes' sequential runtimes are strictly increasing in SJF
// order (mm < fib < sort < sw), scaled down from the paper's 20-core
// testbed to run in the hundreds of microseconds to low milliseconds
// on one CPU.
type Config struct {
	MMSize   int // matrix dimension (power of two)
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
	adm *icilk.AdmissionController // nil = no admission control
	cfg Config
}

// New creates a job server over rt, which must have at least Levels
// priority levels.
func New(rt *icilk.Runtime, cfg Config) (*Server, error) {
	if rt.Levels() < Levels {
		return nil, fmt.Errorf("jobserver: runtime has %d levels, need %d", rt.Levels(), Levels)
	}
	if cfg.MMSize <= 0 {
		cfg = DefaultConfig()
	}
	return &Server{rt: rt, cfg: cfg}, nil
}

// SetAdmission attaches an admission controller consulted by TryDo
// (Do bypasses it).
func (s *Server) SetAdmission(adm *icilk.AdmissionController) { s.adm = adm }

// job returns the priority level and task body of one job of the
// given class (0=mm, 1=fib, 2=sort, 3=sw) with a deterministic input
// derived from seq. The body returns a checksum of the job's result.
func (s *Server) job(class int, seq int64) (int, func(*icilk.Task) any) {
	switch class {
	case 0:
		return LevelMM, func(t *icilk.Task) any {
			n := s.cfg.MMSize
			a, b := randomMatrix(n, uint64(seq)), randomMatrix(n, uint64(seq)+1)
			c := MM(t, a, b, n)
			var sum float64
			for _, v := range c {
				sum += v
			}
			return sum
		}
	case 1:
		return LevelFib, func(t *icilk.Task) any {
			return Fib(t, s.cfg.FibN)
		}
	case 2:
		return LevelSort, func(t *icilk.Task) any {
			xs := randomInts(s.cfg.SortSize, uint64(seq))
			Sort(t, xs)
			// Checksum that also certifies sortedness.
			var sum int64
			for i := 1; i < len(xs); i++ {
				if xs[i-1] > xs[i] {
					panic("jobserver: sort produced unsorted output")
				}
				sum += xs[i] * int64(i%7)
			}
			return sum
		}
	default:
		return LevelSW, func(t *icilk.Task) any {
			p := randomSeq(s.cfg.SWSize, uint64(seq))
			q := randomSeq(s.cfg.SWSize, uint64(seq)+7)
			return SW(t, p, q)
		}
	}
}

// Do submits one job of the given class and returns its future.
func (s *Server) Do(class int, seq int64) *icilk.Future {
	level, fn := s.job(class, seq)
	return s.rt.Submit(level, fn)
}

// TryDo is Do gated by the attached admission controller: a shed job
// returns a nil future and an error wrapping icilk.ErrShed. Without a
// controller it behaves like Do.
func (s *Server) TryDo(class int, seq int64) (*icilk.Future, error) {
	level, fn := s.job(class, seq)
	if s.adm != nil {
		return s.adm.SubmitClass(level, s.predictClass(class), fn)
	}
	return s.rt.Submit(level, fn), nil
}

// predictClass maps a job class to its predictor class: one opcode
// per class, size bucket from the class's configured input size (the
// cost-determining input is fixed per class on one server).
func (s *Server) predictClass(class int) predict.Class {
	size := [4]int{s.cfg.MMSize, s.cfg.FibN, s.cfg.SortSize, s.cfg.SWSize}[class&3]
	return predict.Class{Op: 1 + uint8(class&3), Size: predict.SizeBucket(size)}
}

func randomMatrix(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	m := make([]float64, n*n)
	for i := range m {
		m[i] = r.Float64()
	}
	return m
}

func randomInts(n int, seed uint64) []int64 {
	r := xrand.New(seed)
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = r.Int63()
	}
	return xs
}

func randomSeq(n int, seed uint64) []byte {
	r := xrand.New(seed)
	s := make([]byte, n)
	const alphabet = "ACGT"
	for i := range s {
		s[i] = alphabet[r.Intn(4)]
	}
	return s
}
