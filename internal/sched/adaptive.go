package sched

import (
	"sync"
	"time"

	"icilk/internal/deque"
	"icilk/internal/trace"
	"icilk/internal/xrand"
)

// napDuration is how long an Adaptive-variant worker sleeps after a
// round of failed steal probes. The Adaptive designs have no global
// work signal (that is Prompt's bitfield), so idle workers poll; the
// nap bounds the polling cost on a timeshared host while keeping the
// reaction latency well under the allocator quantum.
const napDuration = 100 * time.Microsecond

// stealProbes is how many failed probes an Adaptive worker makes before
// napping.
const stealProbes = 4

// nap sleeps briefly, charging the time to waste.
func nap(w *worker) {
	t0 := time.Now()
	time.Sleep(napDuration)
	w.clock.AddWaste(time.Since(t0))
}

// wpool is one worker's deque pool at one priority level: the
// random-access, arbitrary-removal, lock-protected structure whose
// maintenance cost the paper identifies as Adaptive I-Cilk's key
// overhead ("the deque pool of each processor is protected by a lock
// ... accessing the deque pool can become expensive because a deque in
// its life time can repeatedly transition between being
// suspended/empty and resumable/non-empty").
type wpool struct {
	mu     sync.Mutex
	deques []*dq
	index  map[*dq]int
	// resumableQ is the AdaptiveAging addition: resumable deques in
	// resumption order, consulted by thieves before random selection.
	// Entries are hints; stale ones (deques that were mugged or moved)
	// are skipped.
	resumableQ []*dq
}

func newWpool() *wpool {
	return &wpool{index: make(map[*dq]int)}
}

func (p *wpool) add(d *dq) {
	p.mu.Lock()
	p.index[d] = len(p.deques)
	p.deques = append(p.deques, d)
	p.mu.Unlock()
}

func (p *wpool) remove(d *dq) {
	p.mu.Lock()
	if i, ok := p.index[d]; ok {
		last := len(p.deques) - 1
		p.deques[i] = p.deques[last]
		p.index[p.deques[i]] = i
		p.deques = p.deques[:last]
		delete(p.index, d)
	}
	p.mu.Unlock()
}

// random returns a uniformly random deque from the pool, or nil.
func (p *wpool) random(rng *xrand.Rand) *dq {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.deques) == 0 {
		return nil
	}
	return p.deques[rng.Intn(len(p.deques))]
}

// pushResumable appends a resumable deque in resumption order.
func (p *wpool) pushResumable(d *dq) {
	p.mu.Lock()
	p.resumableQ = append(p.resumableQ, d)
	p.mu.Unlock()
}

// popAgedResumable returns the oldest still-resumable entry, dropping
// stale ones.
func (p *wpool) popAgedResumable() *dq {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.resumableQ) > 0 {
		d := p.resumableQ[0]
		p.resumableQ[0] = nil
		p.resumableQ = p.resumableQ[1:]
		if d.State() == deque.Resumable {
			return d
		}
	}
	return nil
}

// drain removes and returns all deques (rebalancing support).
func (p *wpool) drain() []*dq {
	p.mu.Lock()
	out := p.deques
	p.deques = nil
	p.index = make(map[*dq]int)
	p.mu.Unlock()
	return out
}

// adaptivePolicy implements Adaptive I-Cilk (and its +aging variant):
// randomized work stealing over per-worker pools at the bottom,
// quantum-boundary processor allocation at the top.
type adaptivePolicy struct {
	rt    *Runtime
	aging bool
	// pools[workerID][level]
	pools [][]*wpool
	// loc maps every pooled deque to its current pool. Guarded by
	// locMu; lock order is locMu → wpool.mu.
	locMu sync.Mutex
	loc   map[*dq]*wpool
	alloc *allocator
	// insertRNG drives random pool placement for deques arriving from
	// non-worker goroutines; guarded by locMu.
	insertRNG *xrand.Rand
}

func newAdaptivePolicy(rt *Runtime, aging bool) *adaptivePolicy {
	p := &adaptivePolicy{
		rt:        rt,
		aging:     aging,
		loc:       make(map[*dq]*wpool),
		insertRNG: xrand.New(0xada97),
	}
	p.pools = make([][]*wpool, rt.cfg.Workers)
	for i := range p.pools {
		p.pools[i] = make([]*wpool, rt.cfg.Levels)
		for l := range p.pools[i] {
			p.pools[i][l] = newWpool()
		}
	}
	p.alloc = newAllocator(rt, p.rebalance)
	return p
}

func (p *adaptivePolicy) start() { p.alloc.start() }
func (p *adaptivePolicy) stop()  { p.alloc.stop() }

// insertLocked places d into pool and records its location; locMu
// must be held.
func (p *adaptivePolicy) insertLocked(d *dq, pool *wpool) {
	p.loc[d] = pool
	pool.add(d)
}

func (p *adaptivePolicy) insert(d *dq, workerID int) {
	p.locMu.Lock()
	p.insertLocked(d, p.pools[workerID][d.Level()])
	p.locMu.Unlock()
}

func (p *adaptivePolicy) removeIfPresent(d *dq) {
	p.locMu.Lock()
	if pool, ok := p.loc[d]; ok {
		delete(p.loc, d)
		pool.remove(d)
	}
	p.locMu.Unlock()
}

// removeIfNotStealable enforces the strict invariant for a deque that
// appears suspended and empty. The state is re-checked under locMu:
// if a concurrent future completion made the deque resumable first,
// the removal is skipped; if the completion lands after our removal,
// its onResumable call serializes behind locMu, finds the deque
// absent, and reinserts it — so a resumable deque can never be lost.
func (p *adaptivePolicy) removeIfNotStealable(d *dq) {
	p.locMu.Lock()
	if pool, ok := p.loc[d]; ok {
		if d.State() == deque.Suspended && !d.Stealable() {
			delete(p.loc, d)
			pool.remove(d)
		}
	}
	p.locMu.Unlock()
}

// move relocates d into workerID's pool (after a mug).
func (p *adaptivePolicy) move(d *dq, workerID int) {
	p.locMu.Lock()
	if pool, ok := p.loc[d]; ok {
		pool.remove(d)
	}
	p.insertLocked(d, p.pools[workerID][d.Level()])
	p.locMu.Unlock()
}

func (p *adaptivePolicy) findWork(w *worker) (*node, *dq) {
	rt := p.rt
	for {
		if rt.stopped.Load() {
			return nil, nil
		}
		a := int(w.assigned.Load())
		if a < 0 {
			// Parked by the allocator: deliberately idle, so the nap
			// is not charged as waste ("waste" is time spent looking
			// for and failing to find work).
			w.clock.CountSleep()
			time.Sleep(napDuration)
			continue
		}
		w.level.Store(int32(a))
		t0 := time.Now()
		for try := 0; try < stealProbes; try++ {
			// Random victim, then random deque in its pool — the
			// randomized stealing Prompt I-Cilk argues against for
			// these workloads.
			v := w.rng.Intn(len(rt.workers))
			pool := p.pools[v][a]
			var d *dq
			if p.aging {
				d = pool.popAgedResumable()
			}
			if d == nil {
				d = pool.random(w.rng)
			}
			if d == nil {
				w.clock.CountFailedSteal()
				continue
			}
			if frame, ok := d.TryMug(); ok {
				p.move(d, w.id)
				w.clock.CountMug()
				rt.trace.Add(trace.Mug, w.id, a)
				w.clock.AddOverhead(time.Since(t0))
				return frame.(*node), d
			}
			if frame, ok := d.TryStealTop(); ok {
				// Strict invariant: if the steal emptied a suspended
				// deque it is no longer stealable and must leave the
				// pool (it returns on resumption).
				p.removeIfNotStealable(d)
				nd := rt.newDeque(a)
				p.insert(nd, w.id)
				w.clock.CountSteal()
				rt.trace.Add(trace.Steal, w.id, a)
				w.clock.AddOverhead(time.Since(t0))
				return frame.(*node), nd
			}
			w.clock.CountFailedSteal()
		}
		w.clock.AddWaste(time.Since(t0))
		nap(w)
	}
}

func (p *adaptivePolicy) onOwnerPush(w *worker, d *dq, needsEnqueue bool) {
	// Active deques are always pool members; nothing to do.
}

func (p *adaptivePolicy) onAdopt(w *worker, d *dq) {
	p.insert(d, w.id)
}

func (p *adaptivePolicy) onSuspend(w *worker, d *dq) {
	// Strict invariant: "Adaptive I-Cilk removes these non-stealable
	// suspended deques from workers' deque pools and reinserts them
	// when they become resumable."
	p.removeIfNotStealable(d)
}

func (p *adaptivePolicy) onResumable(d *dq, needsEnqueue bool) {
	p.locMu.Lock()
	pool, ok := p.loc[d]
	if !ok {
		// Reinsert into a random worker's pool at the deque's level.
		pool = p.pools[p.insertRNG.Intn(len(p.pools))][d.Level()]
		p.insertLocked(d, pool)
	}
	p.locMu.Unlock()
	if p.aging {
		pool.pushResumable(d)
	}
}

func (p *adaptivePolicy) onAbandon(w *worker, d *dq, needsEnqueue bool) {
	// The abandoned deque is already in the owner's pool; for the
	// aging variant it also enters the resumption-order queue.
	if p.aging {
		p.locMu.Lock()
		pool := p.loc[d]
		p.locMu.Unlock()
		if pool != nil {
			pool.pushResumable(d)
		}
	}
}

func (p *adaptivePolicy) onDequeDead(w *worker, d *dq) {
	p.removeIfPresent(d)
}

func (p *adaptivePolicy) checkSwitch(w *worker, level int) (int, bool) {
	a := int(w.assigned.Load())
	if a >= 0 && a != level {
		return a, true
	}
	return 0, false
}

// poolDepths sums the per-worker pool populations at level; the
// "mugging" slot reports the aging-queue length (entries are hints
// and may include stale deques).
func (p *adaptivePolicy) poolDepths(level int) (regular, mugging int) {
	for wid := range p.pools {
		wp := p.pools[wid][level]
		wp.mu.Lock()
		regular += len(wp.deques)
		mugging += len(wp.resumableQ)
		wp.mu.Unlock()
	}
	return regular, mugging
}

// rebalance redistributes each level's deques evenly across the
// workers currently assigned to that level — Adaptive I-Cilk's
// periodic rebalancing "to ensure that the probability of stealing
// from each deque is about the same". Runs at quantum boundaries on
// the allocator goroutine.
func (p *adaptivePolicy) rebalance() {
	rt := p.rt
	// Workers assigned per level.
	assignees := make([][]int, rt.cfg.Levels)
	for i, w := range rt.workers {
		if a := int(w.assigned.Load()); a >= 0 {
			assignees[a] = append(assignees[a], i)
		}
	}
	p.locMu.Lock()
	defer p.locMu.Unlock()
	for l := 0; l < rt.cfg.Levels; l++ {
		if len(assignees[l]) == 0 {
			continue
		}
		var all []*dq
		for wid := range p.pools {
			all = append(all, p.pools[wid][l].drain()...)
		}
		for i, d := range all {
			pool := p.pools[assignees[l][i%len(assignees[l])]][l]
			p.insertLocked(d, pool)
		}
	}
}

// greedyPolicy is the AdaptiveGreedy variant: the Adaptive top-level
// allocator combined with Prompt's centralized, unrandomized bottom
// level ("it uses a centralized deque pool and steals without
// randomization, and therefore approximates aging better than
// Adaptive I-Cilk plus aging").
type greedyPolicy struct {
	rt    *Runtime
	pool  *centralPool
	alloc *allocator
}

func newGreedyPolicy(rt *Runtime) *greedyPolicy {
	return &greedyPolicy{rt: rt, pool: newCentralPool(rt), alloc: newAllocator(rt, nil)}
}

func (p *greedyPolicy) start() { p.alloc.start() }
func (p *greedyPolicy) stop()  { p.alloc.stop() }

func (p *greedyPolicy) findWork(w *worker) (*node, *dq) {
	rt := p.rt
	for {
		if rt.stopped.Load() {
			return nil, nil
		}
		a := int(w.assigned.Load())
		if a < 0 {
			// Parked by the allocator: deliberately idle, not waste.
			w.clock.CountSleep()
			time.Sleep(napDuration)
			continue
		}
		w.level.Store(int32(a))
		t0 := time.Now()
		if frame, d, ok := p.pool.pop(w, a); ok {
			w.clock.AddOverhead(time.Since(t0))
			return frame, d
		}
		w.clock.CountFailedSteal()
		w.clock.AddWaste(time.Since(t0))
		nap(w)
	}
}

func (p *greedyPolicy) onOwnerPush(w *worker, d *dq, needsEnqueue bool) {
	if needsEnqueue {
		p.pool.enqueue(d, false)
	}
}

func (p *greedyPolicy) onAdopt(w *worker, d *dq) {}

func (p *greedyPolicy) onSuspend(w *worker, d *dq) {}

func (p *greedyPolicy) onResumable(d *dq, needsEnqueue bool) {
	if needsEnqueue {
		p.pool.enqueue(d, false)
	}
}

func (p *greedyPolicy) onAbandon(w *worker, d *dq, needsEnqueue bool) {
	if needsEnqueue {
		// Greedy keeps Prompt's mugging queue (its bottom level is
		// Prompt's scheduler).
		p.pool.enqueue(d, !p.rt.cfg.DisableMuggingQueue)
	}
}

func (p *greedyPolicy) onDequeDead(w *worker, d *dq) {}

func (p *greedyPolicy) checkSwitch(w *worker, level int) (int, bool) {
	a := int(w.assigned.Load())
	if a >= 0 && a != level {
		return a, true
	}
	return 0, false
}

func (p *greedyPolicy) poolDepths(level int) (regular, mugging int) {
	return p.pool.depths(level)
}

// allocator is the shared top-level quantum scheduler of the Adaptive
// variants: each quantum it measures per-level utilization and
// recomputes worker-to-level assignments by multiplicative
// grow/shrink of per-level desire, giving preference to higher
// priorities.
type allocator struct {
	rt        *Runtime
	desire    []float64
	rebalance func() // optional per-quantum hook (deque rebalancing)
	stopCh    chan struct{}
	doneCh    chan struct{}
}

func newAllocator(rt *Runtime, rebalance func()) *allocator {
	return &allocator{
		rt:        rt,
		desire:    make([]float64, rt.cfg.Levels),
		rebalance: rebalance,
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
	}
}

func (a *allocator) start() {
	go func() {
		defer close(a.doneCh)
		t := time.NewTicker(a.rt.cfg.Adaptive.Quantum)
		defer t.Stop()
		for {
			select {
			case <-a.stopCh:
				return
			case <-t.C:
				a.quantum()
			}
		}
	}()
}

func (a *allocator) stop() {
	close(a.stopCh)
	<-a.doneCh
}

// quantum performs one reallocation step.
func (a *allocator) quantum() {
	rt := a.rt
	L := rt.cfg.Levels
	P := len(rt.workers)
	params := rt.cfg.Adaptive

	// Current allocation counts.
	counts := make([]int, L)
	for _, w := range rt.workers {
		if l := int(w.assigned.Load()); l >= 0 {
			counts[l]++
		}
	}

	// Update desires from utilization.
	for l := 0; l < L; l++ {
		work := time.Duration(rt.levelWork[l].Swap(0))
		hasWork := rt.nonEmpty[l].Load() > 0 || work > 0
		if !hasWork {
			a.desire[l] = 0
			continue
		}
		if a.desire[l] < 1 {
			a.desire[l] = 1
		}
		if counts[l] > 0 {
			util := float64(work) / (float64(counts[l]) * float64(params.Quantum))
			if util >= params.Delta {
				a.desire[l] *= params.Rho
				if a.desire[l] > float64(P) {
					a.desire[l] = float64(P)
				}
			} else {
				a.desire[l] /= params.Rho
				if a.desire[l] < 1 {
					a.desire[l] = 1
				}
			}
		}
	}

	// Grant desires from the highest priority down.
	want := make([]int, L)
	remaining := P
	for l := 0; l < L; l++ {
		k := int(a.desire[l] + 0.5)
		if k > remaining {
			k = remaining
		}
		if k < 0 {
			k = 0
		}
		want[l] = k
		remaining -= k
	}

	// Stable assignment: keep workers whose level still wants them.
	newAssign := make([]int, P)
	for i := range newAssign {
		newAssign[i] = -1
	}
	for i, w := range rt.workers {
		cur := int(w.assigned.Load())
		if cur >= 0 && want[cur] > 0 {
			newAssign[i] = cur
			want[cur]--
		}
	}
	// Fill remaining wants from unassigned workers, high priority
	// first.
	next := 0
	for l := 0; l < L; l++ {
		for want[l] > 0 && next < P {
			for next < P && newAssign[next] != -1 {
				next++
			}
			if next == P {
				break
			}
			newAssign[next] = l
			want[l]--
		}
	}
	for i, w := range rt.workers {
		w.assigned.Store(int32(newAssign[i]))
	}

	if a.rebalance != nil {
		a.rebalance()
	}
}
