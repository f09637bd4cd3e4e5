package memcached

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// FuzzParseCommand checks the text-protocol parser never panics and
// keeps its framing contract (needData only for storage commands,
// errors always protocol-formatted) on arbitrary input.
func FuzzParseCommand(f *testing.F) {
	for _, seed := range []string{
		"get k", "get a b c", "gets k",
		"set k 0 0 5", "set k 1 2 3 noreply", "cas k 0 0 3 42",
		"add k 0 0 1", "replace k 0 0 1", "append k 0 0 1", "prepend k 0 0 1",
		"delete k", "delete k noreply",
		"incr k 1", "decr k 2 noreply", "touch k 30",
		"stats", "version", "flush_all", "quit", "verbosity 1",
		"", "   ", "bogus", "set", "set k", "set k x y z",
		"get \x00\xff", "incr k 99999999999999999999999",
		"set k 0 0 9223372036854775806", "set k 0 0 1099511627776",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		req, needData, err := ParseCommand(line)
		if err != nil {
			msg := err.Error()
			if msg != "ERROR" && !strings.HasPrefix(msg, "CLIENT_ERROR") && err != errTooLarge {
				t.Fatalf("unprotocol error %q for line %q", msg, line)
			}
			return
		}
		if req == nil {
			return // blank line
		}
		switch req.Op {
		case "set", "add", "replace", "append", "prepend", "cas":
			if needData < 0 {
				t.Fatalf("storage op %q without data block (line %q)", req.Op, line)
			}
		default:
			if needData >= 0 {
				t.Fatalf("non-storage op %q demands data (line %q)", req.Op, line)
			}
		}
		// Executing any successfully parsed command must not panic.
		if needData >= 0 {
			req.Data = make([]byte, needData)
		}
		s := NewStore(StoreConfig{Shards: 1})
		Execute(s, req)
	})
}

// --- Parity fuzzing: the zero-copy protocol path against the string
// reference implementations. Both paths walk the same raw pipelined
// input with one store each; deterministic commands must produce
// byte-for-byte identical response streams. The text stores have two
// shards, so a shard id in "lru_crawler crawl" or "stats cachedump"
// can fall out of range on either side.

// trimFuzzCR strips one trailing CR, as both protocol readers do.
func trimFuzzCR(line []byte) []byte {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		return line[:len(line)-1]
	}
	return line
}

// runOldTextPath frames input and serves it through ParseCommand /
// Execute (the copying reference path).
func runOldTextPath(input []byte) (out []byte, quit bool) {
	s := NewStore(StoreConfig{Shards: 2})
	pos := 0
	for {
		idx := bytes.IndexByte(input[pos:], '\n')
		if idx < 0 {
			return out, false
		}
		line := trimFuzzCR(input[pos : pos+idx])
		pos += idx + 1
		req, needData, err := ParseCommand(string(line))
		if err != nil {
			out = append(out, err.Error()...)
			out = append(out, "\r\n"...)
			if err == errTooLarge {
				return out, false // the server closes the connection
			}
			continue
		}
		if req == nil {
			continue
		}
		if needData >= 0 {
			if len(input)-pos < needData+2 {
				return out, false // incomplete data block: stop
			}
			req.Data = append([]byte(nil), input[pos:pos+needData]...)
			pos += needData + 2
			if string(input[pos-2:pos]) != "\r\n" {
				out = append(out, replyBadDataChnk...)
				continue
			}
		}
		reply, q := Execute(s, req)
		out = append(out, reply...)
		if q {
			return out, true
		}
	}
}

// runNewTextPath frames the same input through ParseCommandB /
// ExecuteAppend (the in-place path).
func runNewTextPath(input []byte) (out []byte, quit bool) {
	s := NewStore(StoreConfig{Shards: 2})
	var req RequestB
	pos := 0
	for {
		idx := bytes.IndexByte(input[pos:], '\n')
		if idx < 0 {
			return out, false
		}
		line := trimFuzzCR(input[pos : pos+idx])
		pos += idx + 1
		needData, perr := ParseCommandB(line, &req)
		if perr != nil {
			out = append(out, perr...)
			if closesConn(perr) {
				return out, false
			}
			continue
		}
		if req.Op == opSkip {
			continue
		}
		if needData >= 0 {
			if len(input)-pos < needData+2 {
				return out, false
			}
			bad := req.SetData(input[pos : pos+needData+2])
			pos += needData + 2
			if bad != nil {
				out = append(out, bad...)
				continue
			}
		}
		var q bool
		out, q = ExecuteAppend(s, &req, out)
		if q {
			return out, true
		}
	}
}

// maskUptime hides the only time-dependent stats line ("STAT uptime
// <seconds>") so a second boundary between the two runs cannot break
// byte parity.
var uptimeRE = regexp.MustCompile(`STAT uptime \d+`)

func maskUptime(b []byte) []byte {
	return uptimeRE.ReplaceAll(b, []byte("STAT uptime X"))
}

// FuzzTextProtocolParity feeds arbitrary pipelined input to both text
// protocol paths and requires identical response bytes.
func FuzzTextProtocolParity(f *testing.F) {
	for _, seed := range []string{
		"set k 0 0 5\r\nhello\r\nget k\r\ngets k\r\ndelete k\r\n",
		"add a 1 0 3\r\nxyz\r\nappend a 0 0 2\r\nzz\r\nprepend a 0 0 2\r\nyy\r\nget a b c\r\n",
		"set n 0 0 2\r\n10\r\nincr n 7\r\ndecr n 3\r\nincr n bogus\r\nincr missing 1\r\n",
		"cas k 0 0 3 1\r\nabc\r\ntouch k 100\r\nbad cmd\r\nverbosity 1 noreply\r\n",
		"get \r\nset k 0 0 bogus\r\nincr\r\nflush_all\r\nstats\r\nversion\r\nquit\r\n",
		"set k 0 0 3 noreply\r\nxyz\r\ndelete k noreply\r\ndelete k\r\n",
		"set k 4294967295 -1 1\r\nz\r\nget k\r\nstats reset\r\nlru_crawler crawl all\r\n",
		"incr k 18446744073709551615\r\ntouch k notanumber\r\ncas k 0 0 1 bogus\r\nx\r\n",
		"set k 0 0 3\r\nabcdXX\r\nget k\r\n", // declared length wrong: bad data chunk
		"lru_crawler crawl -1\r\n",
	} {
		f.Add([]byte(seed))
	}
	for _, in := range hostileInputs {
		f.Add(in.input)
	}
	// What a binary-protocol client sends: the text paths must agree on
	// it as they do on any other unknown command.
	f.Add([]byte(binaryGetK + "\r\nversion\r\n"))
	f.Add([]byte(binarySetKey + "\r\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		oldOut, oldQuit := runOldTextPath(input)
		newOut, newQuit := runNewTextPath(input)
		if oldQuit != newQuit {
			t.Fatalf("quit parity: old %v, new %v", oldQuit, newQuit)
		}
		if !bytes.Equal(maskUptime(oldOut), maskUptime(newOut)) {
			t.Fatalf("reply parity break on %q:\nold: %q\nnew: %q", input, oldOut, newOut)
		}
	})
}
