package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icilk"
	"icilk/internal/admin"
	"icilk/internal/invariant"
	"icilk/internal/invariant/perturb"
	"icilk/internal/memcached"
	"icilk/internal/metrics"
	"icilk/internal/trace"
)

// Config sizes a cluster: N runtime shards, the ring geometry, and
// the hot-key replication knobs.
type Config struct {
	// Shards is the number of in-process runtime shards (each its own
	// icilk.Runtime plus store). Default 1.
	Shards int
	// VNodes is the number of virtual nodes per shard on the hash
	// ring. More vnodes smooth the key distribution at the cost of a
	// larger (still log-time) routing table. Default 64.
	VNodes int
	// Hash is the ring hasher. Default DefaultHasher (FNV-1a + avalanche).
	Hash Hasher
	// Runtime is the per-shard runtime configuration (each shard gets
	// its own instance built from this template — workers, levels,
	// admission, all per shard).
	Runtime icilk.Config
	// Store is the per-shard store configuration.
	Store memcached.StoreConfig
	// RequestLevel is the priority level for request handling and the
	// cross-shard subtasks it spawns. Default 0.
	RequestLevel int
	// BatchLimit bounds pipelined requests handled between yields on
	// one connection. Default 20 (the single-runtime server's value).
	BatchLimit int
	// RequestTimeout classifies slow requests as late for the
	// admission accounting, as in the single-runtime server.
	RequestTimeout time.Duration

	// ReplicateHot enables hot-key detection and replication: the
	// top-K keys by recent GET frequency are copied to every shard,
	// served read-any (from the receiving shard, no cross-shard hop)
	// and written write-all.
	ReplicateHot bool
	// HotTopK bounds how many keys are promoted at once. Default 8.
	HotTopK int
	// HotThreshold is the sketch frequency estimate at which a key
	// becomes a promotion candidate. Default 64.
	HotThreshold uint32
	// SketchWidth is the per-row counter count of the frequency
	// sketch (rounded up to a power of two). Default 4096.
	SketchWidth int
	// SketchDecayEvery halves the sketch counters after this many
	// observations, so promotion tracks recent traffic. Default 65536.
	SketchDecayEvery uint64
	// PromoteInterval paces the promotion/demotion sweep. Default
	// 100ms.
	PromoteInterval time.Duration
}

// Shard is one runtime shard: a scheduler runtime plus its store
// partition.
type Shard struct {
	id       int
	rt       *icilk.Runtime
	store    *memcached.Store
	draining atomic.Bool
}

// ID returns the shard's id (its identity on the ring).
func (s *Shard) ID() int { return s.id }

// Runtime returns the shard's scheduler runtime.
func (s *Shard) Runtime() *icilk.Runtime { return s.rt }

// Store returns the shard's store partition.
func (s *Shard) Store() *memcached.Store { return s.store }

// Draining reports whether the shard is out of the ring (drained or
// draining). A draining shard's runtime stays alive — its in-flight
// requests and hot-key replicas still serve — it just owns no keys.
func (s *Shard) Draining() bool { return s.draining.Load() }

// Cluster is the sharded serving topology: the shard set, the current
// routing ring, and the hot-key machinery. See the package comment
// for the architecture.
type Cluster struct {
	cfg    Config
	shards []*Shard

	// ring is the current routing epoch; migrating holds the previous
	// ring while a rebalance is still moving its keys (the read-
	// fallback window). rebalanceMu serializes Drain/Restore.
	ring        atomic.Pointer[Ring]
	migrating   atomic.Pointer[Ring]
	rebalanceMu sync.Mutex

	sketch   *sketch
	promoted atomic.Pointer[map[string]struct{}]
	hotStop  chan struct{}
	hotDone  chan struct{}

	conns   atomic.Int64
	connSeq atomic.Uint64
	closed  atomic.Bool

	// Counters live in shard 0's metric registry (label app=cluster)
	// so one /metrics scrape covers routing and scheduling together.
	mLocal     *metrics.Counter // single-key ops executed on the receiving shard
	mRemote    *metrics.Counter // single-key ops hopped to the owner shard
	mFanout    *metrics.Counter // multi-get requests that fanned out
	mSubtasks  *metrics.Counter // per-shard fan-out subtasks spawned
	mHotReads  *metrics.Counter // promoted-key reads served read-any
	mWriteAll  *metrics.Counter // promoted-key mutations fanned write-all
	mShed      *metrics.Counter // requests shed by admission
	mDrains    *metrics.Counter // completed drain/restore rebalances
	mMigrated  *metrics.Counter // keys moved by rebalances
	mBinReject *metrics.Counter // binary-protocol connections refused
	lat        *metrics.Histogram
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > 64 {
		// The multi-get fan-out tracks owner shards in a uint64
		// bitmask; 64 in-process runtimes is already far past any
		// sensible core count.
		return nil, fmt.Errorf("cluster: at most 64 shards (got %d)", cfg.Shards)
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.Hash == nil {
		cfg.Hash = DefaultHasher
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = 20
	}
	if cfg.HotTopK <= 0 {
		cfg.HotTopK = 8
	}
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = 64
	}
	if cfg.SketchWidth <= 0 {
		cfg.SketchWidth = 4096
	}
	if cfg.SketchDecayEvery == 0 {
		cfg.SketchDecayEvery = 1 << 16
	}
	if cfg.PromoteInterval <= 0 {
		cfg.PromoteInterval = 100 * time.Millisecond
	}
	c := &Cluster{cfg: cfg}
	ids := make([]int, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		rt, err := icilk.New(cfg.Runtime)
		if err != nil {
			for _, s := range c.shards {
				s.rt.Close()
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		c.shards = append(c.shards, &Shard{
			id:    i,
			rt:    rt,
			store: memcached.NewStore(cfg.Store),
		})
		ids[i] = i
	}
	c.ring.Store(buildRing(1, ids, cfg.VNodes, cfg.Hash))
	empty := make(map[string]struct{})
	c.promoted.Store(&empty)
	c.sketch = newSketch(cfg.SketchWidth, cfg.HotThreshold, cfg.SketchDecayEvery, 4*cfg.HotTopK)
	c.registerMetrics(c.shards[0].rt.Metrics())
	if cfg.ReplicateHot {
		c.hotStop = make(chan struct{})
		c.hotDone = make(chan struct{})
		go c.promoteLoop()
	}
	return c, nil
}

func (c *Cluster) registerMetrics(reg *metrics.Registry) {
	app := metrics.L("app", "cluster")
	c.mLocal = reg.Counter("icilk_cluster_routed_total",
		"Single-key commands executed by shard.", app, metrics.L("target", "local"))
	c.mRemote = reg.Counter("icilk_cluster_routed_total",
		"Single-key commands executed by shard.", app, metrics.L("target", "remote"))
	c.mFanout = reg.Counter("icilk_cluster_multiget_fanout_total",
		"Multi-key GETs split into per-shard subtasks.", app)
	c.mSubtasks = reg.Counter("icilk_cluster_multiget_subtasks_total",
		"Per-shard fan-out subtasks spawned for multi-key GETs.", app)
	c.mHotReads = reg.Counter("icilk_cluster_hot_reads_total",
		"Promoted-key reads served read-any from the receiving shard.", app)
	c.mWriteAll = reg.Counter("icilk_cluster_hot_writeall_total",
		"Promoted-key mutations fanned out write-all.", app)
	c.mShed = reg.Counter("icilk_cluster_shed_total",
		"Requests shed by the receiving shard's admission controller.", app)
	c.mDrains = reg.Counter("icilk_cluster_rebalances_total",
		"Completed drain/restore rebalances.", app)
	c.mMigrated = reg.Counter("icilk_cluster_keys_migrated_total",
		"Keys moved between shards by rebalances.", app)
	c.mBinReject = reg.Counter("icilk_cluster_binary_rejected_total",
		"Binary-protocol connections refused by the cluster frontend.", app)
	c.lat = reg.Histogram("icilk_cluster_request_latency_seconds",
		"Cluster request service latency (parsed to reply written).", nil, app)
	reg.GaugeFunc("icilk_cluster_epoch",
		"Current routing-ring epoch.", func() float64 {
			return float64(c.ring.Load().Epoch())
		}, app)
	reg.GaugeFunc("icilk_cluster_live_shards",
		"Shards currently owning ring segments.", func() float64 {
			return float64(len(c.ring.Load().Shards()))
		}, app)
	reg.GaugeFunc("icilk_cluster_open_conns",
		"Live cluster connection routines.", func() float64 {
			return float64(c.conns.Load())
		}, app)
	reg.GaugeFunc("icilk_cluster_hot_promoted",
		"Keys currently promoted to replicated read-any/write-all.", func() float64 {
			return float64(len(*c.promoted.Load()))
		}, app)
	reg.GaugeFunc("icilk_cluster_sketch_decays",
		"Frequency-sketch decay passes performed.", func() float64 {
			return float64(c.sketch.decays.Load())
		}, app)
}

// NumShards returns the configured shard count (live plus drained).
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Ring returns the current routing ring (for tests and snapshots;
// request paths use enterRing to pin an epoch).
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// ActiveConns returns the number of live connection routines.
func (c *Cluster) ActiveConns() int64 { return c.conns.Load() }

// enterRing pins the current ring for one request: load, count in,
// then re-check the table still points at the same ring — if a
// rebalance swapped it between the load and the count, the count may
// have landed after the drain's zero-check, so release and retry on
// the new ring. The drain side (Drain/Restore) swaps first and then
// waits for the old ring's count to hit zero; together the two sides
// guarantee the quiesce wait covers every request that routed with
// the old epoch.
func (c *Cluster) enterRing() *Ring {
	for {
		r := c.ring.Load()
		r.inflight.Add(1)
		if c.ring.Load() == r {
			return r
		}
		r.inflight.Add(-1)
	}
}

// exitRing releases a pin taken by enterRing.
func exitRing(r *Ring) { r.inflight.Add(-1) }

// promotedHas reports whether key is currently promoted. The lookup
// is a copy-on-write map read — allocation-free (map[string(bytes)]
// does not materialize the string) and wait-free.
func (c *Cluster) promotedHas(key []byte) bool {
	m := c.promoted.Load()
	if len(*m) == 0 {
		return false
	}
	_, ok := (*m)[string(key)]
	return ok
}

// observeGet feeds one GET key to the hot-key sketch and offers it as
// a candidate when its frequency estimate crosses the threshold.
func (c *Cluster) observeGet(key []byte) {
	if !c.cfg.ReplicateHot {
		return
	}
	if est := c.sketch.observe(key); est >= c.cfg.HotThreshold {
		if est == c.cfg.HotThreshold || est%c.cfg.HotThreshold == 0 {
			// Offer on the crossing (and periodically after, in case
			// the candidate table dropped it), not on every hit — the
			// offer takes a lock and copies the key.
			c.sketch.offer(key, est)
		}
	}
}

// promoteLoop is the promotion/demotion sweep: every PromoteInterval
// it re-ranks candidates by sketch estimate, promotes the top K
// (copying the owner's value to every shard), and demotes keys that
// fell out (deleting the non-owner replicas).
func (c *Cluster) promoteLoop() {
	defer close(c.hotDone)
	tick := time.NewTicker(c.cfg.PromoteInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.hotStop:
			return
		case <-tick.C:
			c.promoteSweep()
		}
	}
}

// promoteSweep computes the next promoted set and reconciles replicas.
func (c *Cluster) promoteSweep() {
	top := c.sketch.topK(c.cfg.HotTopK)
	next := make(map[string]struct{}, len(top))
	for _, cand := range top {
		next[cand.key] = struct{}{}
	}
	prev := c.promoted.Load()
	// Replicate newly promoted keys BEFORE publishing the set: a
	// reader that sees the key as promoted must find a replica on its
	// shard (modulo races with concurrent deletes, which are ordinary
	// cache misses).
	for k := range next {
		if _, ok := (*prev)[k]; !ok {
			c.replicate([]byte(k))
		}
	}
	c.promoted.Store(&next)
	// Demote after publishing: readers have stopped treating the key
	// as read-any, so deleting the stray replicas is safe.
	for k := range *prev {
		if _, ok := next[k]; !ok {
			c.dropReplicas([]byte(k))
		}
	}
}

// replicate copies key's value from its owner to every other shard.
// ModeAdd so a concurrent write-all (which reached the replica first)
// is not clobbered with an older value.
func (c *Cluster) replicate(key []byte) {
	ring := c.ring.Load()
	owner := ring.Owner(key)
	if owner < 0 {
		return
	}
	v, flags, _, ok := c.shards[owner].store.Get(string(key))
	if !ok {
		return
	}
	for _, s := range c.shards {
		if s.id == owner {
			continue
		}
		// Replicas never expire on their own; demotion removes them.
		s.store.SetB(memcached.ModeAdd, key, v, flags, 0, 0)
	}
}

// dropReplicas removes the non-owner copies of a demoted key.
func (c *Cluster) dropReplicas(key []byte) {
	owner := c.ring.Load().Owner(key)
	for _, s := range c.shards {
		if s.id != owner {
			s.store.DeleteB(key)
		}
	}
}

// PromotedKeys returns the currently promoted key set (sorted copy;
// snapshot/test surface).
func (c *Cluster) PromotedKeys() []string {
	m := c.promoted.Load()
	out := make([]string, 0, len(*m))
	for k := range *m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Drain removes shard id from the ring and migrates its keys to
// their new owners: bump the epoch, wait for every request routed
// with the old ring to finish (in-flight requests complete; new ones
// route around the shard), then move the data. The shard's runtime
// stays alive — connections assigned to it keep serving, and its
// hot-key replicas still answer read-any — it just owns no keys.
// Returns an error if the shard is unknown, already drained, or the
// last live shard.
func (c *Cluster) Drain(id int) error {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	if id < 0 || id >= len(c.shards) {
		return fmt.Errorf("cluster: drain: no shard %d", id)
	}
	old := c.ring.Load()
	live := old.Shards()
	if len(live) <= 1 {
		return fmt.Errorf("cluster: drain: shard %d is the last live shard", id)
	}
	next := make([]int, 0, len(live)-1)
	found := false
	for _, s := range live {
		if s == id {
			found = true
			continue
		}
		next = append(next, s)
	}
	if !found {
		return fmt.Errorf("cluster: drain: shard %d already drained", id)
	}
	c.shards[id].draining.Store(true)
	c.swapAndMigrate(old, buildRing(old.Epoch()+1, next, c.cfg.VNodes, c.cfg.Hash))
	return nil
}

// Restore adds a drained shard back to the ring (epoch bump) and
// migrates the keys it now owns from their current holders.
func (c *Cluster) Restore(id int) error {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	if id < 0 || id >= len(c.shards) {
		return fmt.Errorf("cluster: restore: no shard %d", id)
	}
	old := c.ring.Load()
	live := old.Shards()
	for _, s := range live {
		if s == id {
			return fmt.Errorf("cluster: restore: shard %d already live", id)
		}
	}
	next := append(append(make([]int, 0, len(live)+1), live...), id)
	c.shards[id].draining.Store(false)
	c.swapAndMigrate(old, buildRing(old.Epoch()+1, next, c.cfg.VNodes, c.cfg.Hash))
	return nil
}

// swapAndMigrate is the shared rebalance tail: publish the new ring,
// quiesce the old epoch, move the keys, close the fallback window.
func (c *Cluster) swapAndMigrate(old, next *Ring) {
	// Open the read-fallback window before the swap so no request can
	// route with the new ring while fallback is still off.
	c.migrating.Store(old)
	c.ring.Store(next)
	if invariant.Enabled {
		perturb.At(perturb.DrainHandoff)
	}
	// Quiesce: every request that pinned the old ring has finished.
	// enterRing's re-check guarantees no new pins land on it after the
	// swap above.
	for old.inflight.Load() != 0 {
		if invariant.Enabled {
			perturb.At(perturb.DrainHandoff)
		}
		time.Sleep(50 * time.Microsecond)
	}
	c.migrateKeys(next)
	if invariant.Enabled {
		perturb.At(perturb.DrainHandoff)
	}
	c.migrating.Store(nil)
	c.mDrains.Inc()
}

// migrateKeys walks every shard's store and moves keys whose owner
// changed under ring next. Copy-then-delete (ModeAdd so a fresher
// write at the new owner — which has been receiving this key's
// traffic since the swap — wins); the read-fallback in the GET path
// covers the in-transit window. Promoted keys are replicated
// everywhere by design and are not moved or deleted.
func (c *Cluster) migrateKeys(next *Ring) {
	for _, src := range c.shards {
		srcID := src.id
		var moved int64
		src.store.Range(func(key string, value []byte, flags uint32, expireAt int64) bool {
			kb := []byte(key)
			owner := next.Owner(kb)
			if owner == srcID || owner < 0 {
				return true
			}
			if c.promotedHas(kb) {
				return true
			}
			// expireAt is unix seconds (0 = never); values above the
			// 30-day relative threshold are interpreted absolutely by
			// the store, so passing it straight through preserves the
			// expiry.
			c.shards[owner].store.SetB(memcached.ModeAdd, kb, value, flags, expireAt, 0)
			src.store.DeleteB(kb)
			moved++
			return true
		})
		c.mMigrated.Add(moved)
	}
}

// appendWithFallback is the migration-aware read: look up on the owner
// under the pinned ring; on a miss during a rebalance, retry the old
// epoch's owner (the key may not have moved yet), then the new owner
// once more (the migration may have completed the move — copy happens
// before delete, so one of the two reads must see an existing key). A
// hit is appended to dst as a VALUE block under the holding store's
// shard lock.
func (c *Cluster) appendWithFallback(dst []byte, owner int, key []byte, withCAS bool) []byte {
	dst, ok := c.shards[owner].store.AppendHit(dst, key, withCAS, memcached.AppendValueLine)
	mig := c.migrating.Load()
	if ok || mig == nil {
		return dst
	}
	oldOwner := mig.Owner(key)
	if oldOwner >= 0 && oldOwner != owner {
		if dst, ok = c.shards[oldOwner].store.AppendHit(dst, key, withCAS, memcached.AppendValueLine); ok {
			return dst
		}
	}
	dst, _ = c.shards[owner].store.AppendHit(dst, key, withCAS, memcached.AppendValueLine)
	return dst
}

// Close stops the promotion loop and shuts every shard runtime down.
// Stop accepting connections first.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	if c.hotStop != nil {
		close(c.hotStop)
		<-c.hotDone
	}
	for _, s := range c.shards {
		s.rt.Close()
	}
}

// Snapshot is the point-in-time cluster view served by the admin
// endpoint /debug/cluster.
type Snapshot struct {
	Epoch      uint64          `json:"epoch"`
	LiveShards []int           `json:"live_shards"`
	Migrating  bool            `json:"migrating"`
	Conns      int64           `json:"conns"`
	Promoted   []string        `json:"promoted,omitempty"`
	Shards     []ShardSnapshot `json:"shards"`
}

// ShardSnapshot is one shard's view within a cluster snapshot.
type ShardSnapshot struct {
	ID       int   `json:"id"`
	Draining bool  `json:"draining"`
	Items    int   `json:"items"`
	Bytes    int64 `json:"bytes"`
	Inflight int64 `json:"inflight"`
}

// Snapshot captures the cluster's observable state.
func (c *Cluster) Snapshot() Snapshot {
	ring := c.ring.Load()
	snap := Snapshot{
		Epoch:      ring.Epoch(),
		LiveShards: append([]int(nil), ring.Shards()...),
		Migrating:  c.migrating.Load() != nil,
		Conns:      c.conns.Load(),
		Promoted:   c.PromotedKeys(),
	}
	for _, s := range c.shards {
		snap.Shards = append(snap.Shards, ShardSnapshot{
			ID:       s.id,
			Draining: s.draining.Load(),
			Items:    s.store.Len(),
			Bytes:    s.store.Bytes(),
			Inflight: s.rt.Inflight(),
		})
	}
	return snap
}

// AttachAdmin points an admin server at the cluster: shard 0's
// runtime backs the scheduler endpoints (its metric registry carries
// the cluster-wide series), and /debug/cluster serves the topology
// snapshot.
func (c *Cluster) AttachAdmin(s *admin.Server) {
	rt0 := c.shards[0].rt
	src := admin.Sources{
		Metrics: rt0.Metrics(),
		Sched:   func() any { return rt0.Snapshot() },
		TraceEvents: func() ([]trace.Event, bool) {
			l := rt0.Trace()
			return l.Snapshot(), l != nil
		},
		Health: func() admin.Health {
			h := rt0.Health()
			if c.closed.Load() {
				h.Ready = false
				h.Detail = "cluster closed"
			}
			return h
		},
		Cluster: func() any { return c.Snapshot() },
	}
	if adm := rt0.Admission(); adm != nil && adm.Predictor() != nil {
		p := adm.Predictor()
		src.Predict = func() any { return p.Snapshot() }
	}
	s.SetSources(src)
}

// PreloadSet writes key directly into its current owner's store,
// bypassing the protocol path — the bulk-load primitive cluster-bench
// uses to seed millions of keys before measuring.
func (c *Cluster) PreloadSet(key, value []byte, flags uint32) {
	owner := c.ring.Load().Owner(key)
	if owner < 0 {
		return
	}
	c.shards[owner].store.SetB(memcached.ModeSet, key, value, flags, 0, 0)
}

// TotalItems sums live items across shards (replicas counted once per
// holding shard).
func (c *Cluster) TotalItems() int {
	n := 0
	for _, s := range c.shards {
		n += s.store.Len()
	}
	return n
}
