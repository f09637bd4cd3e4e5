package jobserver

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"icilk"
	"icilk/internal/invariant"
)

// cellSink keeps the allocation check's results from being optimised
// away.
var cellSink any

// typeName names v's dynamic type by a type switch, the way a caller
// unpacking a checksum would.
func typeName(v any) string {
	switch v.(type) {
	case float64:
		return "float64"
	case int64:
		return "int64"
	case int:
		return "int"
	}
	return "other"
}

// checkCells compares cell-backed results of xs with ordinary boxes of
// the same values.
func checkCells[T float64 | int64 | int](t *testing.T, xs ...T) {
	t.Helper()
	var cur atomic.Pointer[cellBlock]
	for _, x := range xs {
		got, want := cellResult(&cur, x), any(x)
		if got != want {
			t.Errorf("%T %v: cell result %v != any(x)", x, x, got)
		}
		if v, ok := got.(T); !ok || v != x {
			t.Errorf("%T %v: type assertion gives %v, %v", x, x, v, ok)
		}
		if g, w := typeName(got), typeName(want); g != w {
			t.Errorf("%T %v: type switch picks %s, want %s", x, x, g, w)
		}
		if g, w := reflect.TypeOf(got), reflect.TypeOf(want); g != w {
			t.Errorf("%T %v: reflect.TypeOf is %v, want %v", x, x, g, w)
		}
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			t.Errorf("%T %v: fmt.Sprint gives %q, want %q", x, x, g, w)
		}
	}
}

// heldCell fills one block from a block pointer of its own and returns
// only the result in cell i, so that the result's data word is the one
// reference left to the block.
//
//go:noinline
func heldCell(i int) any {
	var cur atomic.Pointer[cellBlock]
	var held any
	for j := 0; j < cellBlockSize; j++ {
		if r := cellResult(&cur, float64(j)+0.25); j == i {
			held = r
		}
	}
	return held
}

// TestResultCells checks that a job result carved from a cell block is
// an ordinary value to whoever reads it, keeps its block alive, is never
// shared between two jobs, and costs 1/cellBlockSize of an object.
func TestResultCells(t *testing.T) {
	t.Run("same-as-box", func(t *testing.T) {
		checkCells(t, 0, 1.5, -2.75, 1e300, float64(1<<53)+2)
		checkCells(t, int64(0), 255, 256, -1, 1<<62)
		checkCells(t, 0, 7, 255, 256, -1<<40)
	})

	t.Run("kept-alive", func(t *testing.T) {
		const i = cellBlockSize / 2
		held := heldCell(i)
		runtime.GC()
		runtime.GC()
		// Refill the size class a freed block would return to.
		for k := 0; k < 1<<12; k++ {
			b := new(cellBlock)
			for j := range b.c {
				b.c[j] = ^uint64(0)
			}
			cellSink = b
		}
		if want := float64(i) + 0.25; held != want {
			t.Fatalf("held result reads %v after GC, want %v", held, want)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		srv, err := New(newRT(t, icilk.Prompt), benchConfig)
		if err != nil {
			t.Fatal(err)
		}
		// Submitter g runs seqs g*seqs .. g*seqs+seqs-1 of every class,
		// so no two submitters expect the same checksum.
		const submitters, perSubmitter, seqs = 8, 2000, 8
		golden := make([][]any, Levels)
		for class := range golden {
			for seq := int64(0); seq < submitters*seqs; seq++ {
				golden[class] = append(golden[class], srv.Do(class, seq).Wait())
			}
		}
		// Two goroutines first claim from the server's block directly,
		// started together and as fast as they can, so claims collide
		// far more often than jobs finishing together make them. Each
		// holds its last 2*cellBlockSize results and checks each one as
		// it drops it.
		const claimers, claims, window = 2, 1 << 17, 2 * cellBlockSize
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := int64(0); g < claimers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var held [window]any
				<-start
				for i := int64(0); i < claims+window; i++ {
					if old, want := held[i%window], g<<32|(i-window); i >= window && old != want {
						t.Errorf("claimer %d result %d: %v, want %v", g, i-window, old, want)
						return
					}
					held[i%window] = cellResult(&srv.cells, g<<32|i)
				}
			}()
		}
		close(start)
		wg.Wait()
		// Then the submitters.
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Every result is held to the end, so a cell handed out
				// twice or reused shows however late it is overwritten.
				got := make([]any, perSubmitter)
				for i := range got {
					got[i] = srv.Do(i%Levels, int64(g*seqs+i/Levels%seqs)).Wait()
				}
				for i, v := range got {
					class, seq := i%Levels, g*seqs+i/Levels%seqs
					if want := golden[class][seq]; v != want {
						t.Errorf("submitter %d request %d (%s seq %d): %v, want %v",
							g, i, OpNames[class], seq, v, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	})

	t.Run("allocs", func(t *testing.T) {
		if invariant.Race || invariant.Enabled {
			t.Skip("allocation accounting differs under -race and icilk_debug")
		}
		var cur atomic.Pointer[cellBlock]
		for name, box := range map[string]func(i int) any{
			"float64": func(i int) any { return cellResult(&cur, float64(i)+0.5) },
			"int64":   func(i int) any { return cellResult(&cur, int64(i)<<20) },
			"int":     func(i int) any { return cellResult(&cur, i<<20) },
		} {
			// AllocsPerRun rounds down, so a round of one block's worth
			// of calls must read at most one object.
			if n := testing.AllocsPerRun(200, func() {
				for i := 0; i < cellBlockSize; i++ {
					cellSink = box(i)
				}
			}); n > 1 {
				t.Errorf("%s: %v objects per %d results, want at most 1", name, n, cellBlockSize)
			}
		}
	})
}
