package jobserver

import (
	"sync/atomic"
	"unsafe"
)

// cellBlockSize is how many results one allocation holds (cellBlock).
const cellBlockSize = 32

// cellBlock is the allocation job results are carved from, the way the
// scheduler carves futures from its future blocks: a cell is claimed
// with one atomic add, so a result costs the allocator 1/cellBlockSize
// of an object where boxing it into an any would cost one. A cell is
// written once, before the job's future completes, and a block is never
// reused; the GC frees it once no result points into it, so one held
// result keeps its cellBlockSize-1 neighbours' eight bytes alive with it.
type cellBlock struct {
	next atomic.Int32 // cells claimed; past cellBlockSize the block is spent
	c    [cellBlockSize]uint64
}

// eface is the layout of an empty interface: the dynamic type and a
// pointer to the value.
type eface struct{ typ, data unsafe.Pointer }

// cellResult returns v as an any that cannot be told apart from any(v),
// but whose value lives in a cell claimed from cur's block, a new block
// starting when the current one is spent. The type word is T's, taken
// from boxing T's zero value, which allocates nothing; the data word
// points at the cell, where an ordinary box's would point at the box.
// T is limited to 8-byte non-pointer types: a pointer-shaped value
// would be stored in the data word itself, and a pointer written into
// a uint64 cell would be invisible to the GC.
func cellResult[T float64 | int64 | int](cur *atomic.Pointer[cellBlock], v T) any {
	var p *uint64
	if b := cur.Load(); b != nil {
		if i := b.next.Add(1) - 1; i < cellBlockSize {
			p = &b.c[i]
		}
	}
	if p == nil {
		// Racing claimants each start a block; the last stored stays
		// current and the others' spare cells are dropped.
		b := new(cellBlock)
		b.next.Store(1)
		cur.Store(b)
		p = &b.c[0]
	}
	*(*T)(unsafe.Pointer(p)) = v
	r := any(T(0))
	(*eface)(unsafe.Pointer(&r)).data = unsafe.Pointer(p)
	return r
}
