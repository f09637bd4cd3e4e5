//go:build race

package invariant

// Race reports whether the race detector is compiled in. Allocation
// gates skip under it: the instrumented runtime allocates on paths
// that are otherwise free.
const Race = true
