//go:build !race

package invariant

// Race reports whether the race detector is compiled in; see race_on.go.
const Race = false
