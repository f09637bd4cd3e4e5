//go:build !linux || icilk_nopoll

package netpoll

import "errors"

// Supported reports whether shared pollers are available in this
// build. This stub build (non-Linux, or the icilk_nopoll tag) has
// none: Open fails and netreal selects the per-connection pump.
const Supported = false

var errUnsupported = errors.New("netpoll: shared pollers unsupported in this build")

// Group is a placeholder in unsupported builds; Open never returns
// one.
type Group struct{}

// Open always fails in unsupported builds.
func Open(shards int) (*Group, error) { return nil, errUnsupported }

// Shards reports 0 in unsupported builds.
func (g *Group) Shards() int { return 0 }

// Add always fails in unsupported builds.
func (g *Group) Add(fd int, c Conn) (*Desc, error) { return nil, errUnsupported }

// Close is a no-op in unsupported builds.
func (g *Group) Close() error { return nil }

// Desc is a placeholder in unsupported builds; Add never returns
// one, so its methods are unreachable.
type Desc struct{}

// SetReadInterest is unreachable in unsupported builds.
func (d *Desc) SetReadInterest(on bool) error { return errUnsupported }

// SetWriteInterest is unreachable in unsupported builds.
func (d *Desc) SetWriteInterest(on bool) error { return errUnsupported }

// Close is unreachable in unsupported builds.
func (d *Desc) Close() error { return nil }

// CloseWithFD is unreachable in unsupported builds.
func (d *Desc) CloseWithFD() error { return nil }

// ReadFD is unreachable in unsupported builds.
func ReadFD(fd int, p []byte) (int, error) { return 0, errUnsupported }

// WriteFD is unreachable in unsupported builds.
func WriteFD(fd int, p []byte) (int, error) { return 0, errUnsupported }

// WritevFD is unreachable in unsupported builds.
func WritevFD(fd int, a, b []byte) (int, error) { return 0, errUnsupported }
