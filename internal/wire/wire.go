// Package wire holds allocation-free parsing helpers for the byte
// slices protocol handlers read straight out of connection buffers.
//
// The helpers exist so the hot request path never round-trips through
// strings: Fields replicates strings.Fields and ParseUint/ParseInt
// replicate strconv's accept/reject behaviour exactly (the protocol
// fuzz tests assert byte-for-byte parity between the string-based
// reference parsers and the in-place ones built on this package), but
// they work on views into the read buffer and report failure with a
// boolean instead of constructing an error.
package wire

import (
	"unicode"
	"unicode/utf8"
)

// asciiSpace mirrors strings.Fields' ASCII whitespace table.
var asciiSpace = [utf8.RuneSelf]bool{
	'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true,
}

// Fields appends the whitespace-separated fields of s to dst and
// returns it. The fields are views into s, and the split points match
// strings.Fields exactly (unicode.IsSpace boundaries, so multi-byte
// spaces like U+00A0 split too). Passing a reused dst[:0] makes the
// call allocation-free at steady state.
func Fields(dst [][]byte, s []byte) [][]byte {
	i := 0
	for i < len(s) {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(s[i:])
		}
		if isSpace(r) {
			i += size
			continue
		}
		start := i
		for i < len(s) {
			r, size = rune(s[i]), 1
			if r >= utf8.RuneSelf {
				r, size = utf8.DecodeRune(s[i:])
			}
			if isSpace(r) {
				break
			}
			i += size
		}
		dst = append(dst, s[start:i])
	}
	return dst
}

func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiSpace[r]
	}
	return unicode.IsSpace(r)
}

// ParseUint parses b as an unsigned decimal, accepting exactly the
// inputs strconv.ParseUint(string(b), 10, bitSize) accepts (no sign,
// no underscores, range-checked). bitSize must be 1..64.
func ParseUint(b []byte, bitSize int) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var max uint64
	if bitSize == 64 {
		max = ^uint64(0)
	} else {
		max = 1<<uint(bitSize) - 1
	}
	const cutoff = ^uint64(0)/10 + 1 // n*10 would wrap uint64
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n >= cutoff {
			return 0, false
		}
		n *= 10
		n1 := n + uint64(c-'0')
		if n1 < n || n1 > max {
			return 0, false
		}
		n = n1
	}
	return n, true
}

// ParseInt parses b as a signed decimal, accepting exactly the inputs
// strconv.ParseInt(string(b), 10, bitSize) accepts (optional +/-
// sign, range-checked including the asymmetric negative bound).
func ParseInt(b []byte, bitSize int) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	un, ok := ParseUint(b, 64)
	if !ok {
		return 0, false
	}
	cutoff := uint64(1) << uint(bitSize-1)
	if !neg && un >= cutoff {
		return 0, false
	}
	if neg && un > cutoff {
		return 0, false
	}
	if neg {
		return -int64(un), true
	}
	return int64(un), true
}
