package cluster

import "icilk"

// This file is exactly the surface benchmark/probes.go's
// cluster.ring_owner_ns row compiles against. The next [benchmark]
// change deletes that row and, with it, this package, the way
// Runtime.ShardStats survives only for its own row until then.

// Config sizes the ring: Shards shards of 64 virtual nodes each.
type Config struct {
	// Shards is the number of shards on the ring. Default 1.
	Shards int
	// Runtime is unused: no runtime is built. It stays so the probe's
	// composite literal compiles.
	Runtime icilk.Config
}

// Cluster holds one ring over cfg.Shards shards.
type Cluster struct {
	ring *Ring
}

// New builds the ring. The error is always nil.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	ids := make([]int, cfg.Shards)
	for i := range ids {
		ids[i] = i
	}
	return &Cluster{ring: buildRing(ids, 64)}, nil
}

// Ring returns the routing ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Close releases nothing; it stays for the probe's call.
func (c *Cluster) Close() {}
