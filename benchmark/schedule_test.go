package main

import "testing"

func scheduleDigest(t *testing.T, name string, seed uint64) string {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	h := newScheduleHash()
	w.generate(seed, planPhases(w.base(), smokeSeconds, false), h)
	return h.sum()
}

// The same seed must produce a byte-identical request schedule, and a
// different seed a different one.
func TestScheduleDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b := scheduleDigest(t, name, 1), scheduleDigest(t, name, 1)
		if a != b {
			t.Errorf("%s: two generations from seed 1 differ: %s vs %s", name, a, b)
		}
		if c := scheduleDigest(t, name, 2); c == a {
			t.Errorf("%s: seeds 1 and 2 produced the same schedule %s", name, a)
		}
	}
}

// Every set's version must be the next one for its key, in schedule
// order, and travel on the key's writer connection: the reply check
// relies on both.
func TestMemcachedScheduleVersions(t *testing.T) {
	for _, name := range []string{"mc_tcp", "mc_tcp_write"} {
		w, _ := newWorkload(name)
		mc := w.(*mcWorkload)
		phases := planPhases(w.base(), smokeSeconds, false)
		w.generate(7, phases, newScheduleHash())
		next := map[uint32]uint32{}
		sets := 0
		for _, ph := range phases {
			for _, o := range ph.ops {
				if o.kind != kSet {
					continue
				}
				sets++
				next[o.key]++
				if o.ver != next[o.key] {
					t.Fatalf("%s: key %d got version %d, want %d", name, o.key, o.ver, next[o.key])
				}
				if int(o.conn) != int(o.key)%mc.conns {
					t.Fatalf("%s: set of key %d on connection %d", name, o.key, o.conn)
				}
			}
		}
		if sets == 0 {
			t.Errorf("%s: schedule has no sets", name)
		}
	}
}
