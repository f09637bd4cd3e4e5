package wire

import (
	"strconv"
	"strings"
	"testing"
)

// TestFieldsMatchesStringsFields: Fields must split exactly like
// strings.Fields (the reference parser uses it), including Unicode
// whitespace above ASCII.
func TestFieldsMatchesStringsFields(t *testing.T) {
	cases := []string{
		"", " ", "  \t ", "a", " a ", "a b c", "  a\t\tb  c\r", "get key:01",
		"a\vb\fc", "héllo wörld", "a b", "a b", "　x　",
		"set k 0 0 5 noreply", "mixed\tspace  and\ttabs",
		"\xff\xfe", "a\x80b", "trailing\n",
	}
	var dst [][]byte
	for _, c := range cases {
		want := strings.Fields(c)
		dst = Fields(dst[:0], []byte(c))
		if len(dst) != len(want) {
			t.Errorf("Fields(%q): %d fields, strings.Fields gives %d", c, len(dst), len(want))
			continue
		}
		for i := range want {
			if string(dst[i]) != want[i] {
				t.Errorf("Fields(%q)[%d] = %q, want %q", c, i, dst[i], want[i])
			}
		}
	}
}

// TestParseUintMatchesStrconv: accept/reject and values must agree
// with strconv.ParseUint for every bit size the protocol uses.
func TestParseUintMatchesStrconv(t *testing.T) {
	cases := []string{
		"", "0", "1", "42", "007", "4294967295", "4294967296",
		"18446744073709551615", "18446744073709551616",
		"99999999999999999999999", "-1", "+1", " 1", "1 ", "1.5",
		"0x10", "abc", "1a", "18446744073709551610",
	}
	for _, bits := range []int{32, 64} {
		for _, c := range cases {
			want, werr := strconv.ParseUint(c, 10, bits)
			got, ok := ParseUint([]byte(c), bits)
			if ok != (werr == nil) {
				t.Errorf("ParseUint(%q, %d) ok=%v, strconv err=%v", c, bits, ok, werr)
				continue
			}
			if ok && got != want {
				t.Errorf("ParseUint(%q, %d) = %d, strconv = %d", c, bits, got, want)
			}
		}
	}
}

// TestParseIntMatchesStrconv: same for the signed parser, including
// the asymmetric min/max bounds.
func TestParseIntMatchesStrconv(t *testing.T) {
	cases := []string{
		"", "0", "-0", "+0", "1", "-1", "+1", "42", "-42",
		"2147483647", "2147483648", "-2147483648", "-2147483649",
		"9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809",
		"--1", "+-1", "-", "+", " 1", "1 ", "abc", "-abc", "1e3",
	}
	for _, bits := range []int{32, 64} {
		for _, c := range cases {
			want, werr := strconv.ParseInt(c, 10, bits)
			got, ok := ParseInt([]byte(c), bits)
			if ok != (werr == nil) {
				t.Errorf("ParseInt(%q, %d) ok=%v, strconv err=%v", c, bits, ok, werr)
				continue
			}
			if ok && got != want {
				t.Errorf("ParseInt(%q, %d) = %d, strconv = %d", c, bits, got, want)
			}
		}
	}
}

// FuzzFieldsParity drives the splitter against strings.Fields on
// arbitrary bytes.
func FuzzFieldsParity(f *testing.F) {
	f.Add([]byte("a b  c\t"))
	f.Add([]byte("　x y"))
	f.Add([]byte{0xff, ' ', 0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		want := strings.Fields(string(b))
		got := Fields(nil, b)
		if len(got) != len(want) {
			t.Fatalf("Fields(%q): %d fields, want %d", b, len(got), len(want))
		}
		for i := range want {
			if string(got[i]) != want[i] {
				t.Fatalf("Fields(%q)[%d] = %q, want %q", b, i, got[i], want[i])
			}
		}
	})
}

// FuzzParseParity drives both numeric parsers against strconv.
func FuzzParseParity(f *testing.F) {
	f.Add("18446744073709551615")
	f.Add("-9223372036854775808")
	f.Add("00042")
	f.Fuzz(func(t *testing.T, s string) {
		for _, bits := range []int{32, 64} {
			wantU, uerr := strconv.ParseUint(s, 10, bits)
			gotU, okU := ParseUint([]byte(s), bits)
			if okU != (uerr == nil) || (okU && gotU != wantU) {
				t.Fatalf("ParseUint(%q, %d) = %d,%v; strconv %d,%v", s, bits, gotU, okU, wantU, uerr)
			}
			wantI, ierr := strconv.ParseInt(s, 10, bits)
			gotI, okI := ParseInt([]byte(s), bits)
			if okI != (ierr == nil) || (okI && gotI != wantI) {
				t.Fatalf("ParseInt(%q, %d) = %d,%v; strconv %d,%v", s, bits, gotI, okI, wantI, ierr)
			}
		}
	})
}
