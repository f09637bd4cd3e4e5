package memcached

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Request is one parsed protocol command.
type Request struct {
	Op        string   // canonical command name
	Keys      []string // get/gets
	Key       string   // single-key commands
	Flags     uint32
	Exptime   int64
	Bytes     int // data block length for storage commands
	CasUnique uint64
	Delta     uint64 // incr/decr
	NoReply   bool
	Data      []byte // storage payload, attached after the block is read
}

// Protocol reply fragments.
const (
	replyStored      = "STORED\r\n"
	replyNotStored   = "NOT_STORED\r\n"
	replyExists      = "EXISTS\r\n"
	replyNotFound    = "NOT_FOUND\r\n"
	replyDeleted     = "DELETED\r\n"
	replyTouched     = "TOUCHED\r\n"
	replyEnd         = "END\r\n"
	replyError       = "ERROR\r\n"
	replyOK          = "OK\r\n"
	replyBadDataChnk = "CLIENT_ERROR bad data chunk\r\n"
	replyTooLarge    = "SERVER_ERROR object too large for cache\r\n"
	replyLineTooLong = "CLIENT_ERROR line too long\r\n"
	replyNonNumeric  = "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
)

// Bounds on what a client may make a connection buffer. A length is
// checked where it is parsed, before anything is read or grown for
// it; a server that meets one over the bound answers if the protocol
// has an answer and closes the connection, since the framing cannot
// be kept without swallowing the block.
const (
	// maxItemBytes is the longest data block a storage command may
	// declare: memcached's -I default and the store's top size class.
	maxItemBytes = 1 << 20
	// maxBinBody is the longest binary frame body: an item, the
	// longest key and the most extras a header can declare.
	maxBinBody = maxItemBytes + 250 + 255
	// maxLineBytes is how much the pthread frontend buffers looking
	// for a command line's newline (icilk.LineReader has the same
	// bound built in); a 16-key get is under 1 KiB.
	maxLineBytes = 64 << 10
)

// errTooLarge is ParseCommand's rejection of a data block over
// maxItemBytes; unlike its other errors it ends the connection.
var errTooLarge = errors.New(strings.TrimSuffix(replyTooLarge, "\r\n"))

// ParseCommand parses a command line (without the trailing CRLF).
// needData reports how many payload bytes must be read as a data
// block before the command can execute (-1 when none). A nil Request
// with nil error signals a syntactically empty line to skip.
func ParseCommand(line string) (req *Request, needData int, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil, -1, nil
	}
	op := fields[0]
	args := fields[1:]
	r := &Request{Op: op}
	bad := func(msg string) (*Request, int, error) {
		return nil, -1, fmt.Errorf("CLIENT_ERROR %s", msg)
	}

	switch op {
	case "get", "gets":
		if len(args) == 0 {
			return bad("get requires a key")
		}
		r.Keys = args
		return r, -1, nil

	case "set", "add", "replace", "append", "prepend", "cas":
		wantArgs := 4
		if op == "cas" {
			wantArgs = 5
		}
		if len(args) < wantArgs || len(args) > wantArgs+1 {
			return bad("bad storage command")
		}
		r.Key = args[0]
		f64, err1 := strconv.ParseUint(args[1], 10, 32)
		exp, err2 := strconv.ParseInt(args[2], 10, 64)
		nbytes, err3 := strconv.Atoi(args[3])
		if err1 != nil || err2 != nil || err3 != nil || nbytes < 0 {
			return bad("bad storage parameters")
		}
		if nbytes > maxItemBytes {
			return nil, -1, errTooLarge
		}
		r.Flags = uint32(f64)
		r.Exptime = exp
		r.Bytes = nbytes
		rest := args[4:]
		if op == "cas" {
			cu, err := strconv.ParseUint(args[4], 10, 64)
			if err != nil {
				return bad("bad cas unique")
			}
			r.CasUnique = cu
			rest = args[5:]
		}
		if len(rest) == 1 {
			if rest[0] != "noreply" {
				return bad("bad storage command")
			}
			r.NoReply = true
		}
		return r, r.Bytes, nil

	case "delete":
		if len(args) < 1 || len(args) > 2 {
			return bad("bad delete")
		}
		r.Key = args[0]
		r.NoReply = len(args) == 2 && args[1] == "noreply"
		return r, -1, nil

	case "incr", "decr":
		if len(args) < 2 || len(args) > 3 {
			return bad("bad " + op)
		}
		r.Key = args[0]
		d, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			return bad("invalid numeric delta argument")
		}
		r.Delta = d
		r.NoReply = len(args) == 3 && args[2] == "noreply"
		return r, -1, nil

	case "touch":
		if len(args) < 2 || len(args) > 3 {
			return bad("bad touch")
		}
		r.Key = args[0]
		exp, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return bad("bad exptime")
		}
		r.Exptime = exp
		r.NoReply = len(args) == 3 && args[2] == "noreply"
		return r, -1, nil

	case "stats", "version", "verbosity", "flush_all", "quit":
		if op == "flush_all" || op == "verbosity" {
			r.NoReply = len(args) > 0 && args[len(args)-1] == "noreply"
		}
		r.Keys = args // sub-arguments ("stats reset")
		return r, -1, nil

	case "lru_crawler":
		if len(args) == 0 {
			return bad("lru_crawler requires a subcommand")
		}
		r.Keys = args
		return r, -1, nil

	default:
		return nil, -1, fmt.Errorf("ERROR")
	}
}

// Execute runs a parsed request against the store and returns the
// protocol reply (empty for noreply). quit reports that the
// connection should close.
func Execute(s *Store, r *Request) (reply []byte, quit bool) {
	switch r.Op {
	case "get", "gets":
		withCAS := r.Op == "gets"
		var b []byte
		for _, key := range r.Keys {
			value, flags, cas, ok := s.Get(key)
			if !ok {
				continue
			}
			if withCAS {
				b = append(b, fmt.Sprintf("VALUE %s %d %d %d\r\n", key, flags, len(value), cas)...)
			} else {
				b = append(b, fmt.Sprintf("VALUE %s %d %d\r\n", key, flags, len(value))...)
			}
			b = append(b, value...)
			b = append(b, '\r', '\n')
		}
		b = append(b, replyEnd...)
		return b, false

	case "set", "add", "replace", "append", "prepend", "cas":
		mode := map[string]SetMode{
			"set": ModeSet, "add": ModeAdd, "replace": ModeReplace,
			"append": ModeAppend, "prepend": ModePrepend, "cas": ModeCAS,
		}[r.Op]
		res := s.Set(mode, r.Key, r.Data, r.Flags, r.Exptime, r.CasUnique)
		if r.NoReply {
			return nil, false
		}
		switch res {
		case Stored:
			return []byte(replyStored), false
		case NotStored:
			return []byte(replyNotStored), false
		case Exists:
			return []byte(replyExists), false
		default:
			return []byte(replyNotFound), false
		}

	case "delete":
		ok := s.Delete(r.Key)
		if r.NoReply {
			return nil, false
		}
		if ok {
			return []byte(replyDeleted), false
		}
		return []byte(replyNotFound), false

	case "incr", "decr":
		nv, ok, numeric := s.IncrDecr(r.Key, r.Delta, r.Op == "incr")
		if r.NoReply {
			return nil, false
		}
		switch {
		case !ok:
			return []byte(replyNotFound), false
		case !numeric:
			return []byte(replyNonNumeric), false
		default:
			return []byte(strconv.FormatUint(nv, 10) + "\r\n"), false
		}

	case "touch":
		ok := s.Touch(r.Key, r.Exptime)
		if r.NoReply {
			return nil, false
		}
		if ok {
			return []byte(replyTouched), false
		}
		return []byte(replyNotFound), false

	case "stats":
		if len(r.Keys) == 1 && r.Keys[0] == "reset" {
			s.Stats.Reset()
			return []byte("RESET\r\n"), false
		}
		if len(r.Keys) > 0 && r.Keys[0] == "cachedump" {
			if len(r.Keys) != 3 {
				return []byte(replyBadCachedump), false
			}
			return cachedumpAppend(nil, s, r.Keys[1], r.Keys[2]), false
		}
		return statsReply(s), false

	case "lru_crawler":
		switch r.Keys[0] {
		case "crawl":
			sel := "all"
			if len(r.Keys) > 1 {
				sel = r.Keys[1]
			}
			return crawlAppend(nil, s, sel), false
		default:
			return []byte("CLIENT_ERROR unknown lru_crawler subcommand\r\n"), false
		}

	case "version":
		return []byte("VERSION 1.6-icilk-repro\r\n"), false

	case "verbosity":
		if r.NoReply {
			return nil, false
		}
		return []byte(replyOK), false

	case "flush_all":
		s.FlushAll()
		if r.NoReply {
			return nil, false
		}
		return []byte(replyOK), false

	case "quit":
		return nil, true
	}
	return []byte(replyError), false
}

// crawlAppend executes "lru_crawler crawl <all|id[,id...]>": it
// sweeps the named shards synchronously. Every id is checked against
// the store's shard count before any shard is swept, so a bad list
// sweeps nothing. Both protocol paths share it.
func crawlAppend(dst []byte, s *Store, sel string) []byte {
	var ids []int
	if sel == "all" {
		ids = make([]int, s.Shards())
		for i := range ids {
			ids[i] = i
		}
	} else {
		for _, part := range strings.Split(sel, ",") {
			id, err := strconv.Atoi(part)
			if err != nil || id < 0 || id >= s.Shards() {
				return append(dst, "CLIENT_ERROR bad class id\r\n"...)
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		s.CrawlShard(id)
	}
	return append(dst, replyOK...)
}

// replyBadCachedump rejects malformed "stats cachedump" argument
// lists; the connection stays usable.
const replyBadCachedump = "CLIENT_ERROR stats cachedump requires <shard|all> <limit>\r\n"

// cachedumpArgs validates and resolves the "stats cachedump
// <shard|all> <limit>" arguments to the shard list to walk and the
// global entry cap (0 = unlimited). Both protocol paths and the
// parallel server intercept share it, so the three agree on what is
// and is not a well-formed dump request.
func cachedumpArgs(s *Store, shardSel, limitStr string) (shards []int, limit int, ok bool) {
	limit, err := strconv.Atoi(limitStr)
	if err != nil || limit < 0 {
		return nil, 0, false
	}
	if shardSel == "all" {
		shards = make([]int, s.Shards())
		for i := range shards {
			shards[i] = i
		}
		return shards, limit, true
	}
	id, err := strconv.Atoi(shardSel)
	if err != nil || id < 0 || id >= s.Shards() {
		return nil, 0, false
	}
	return []int{id}, limit, true
}

// appendDumpEntries renders per-shard dump snapshots (in the given
// shard order) as "ITEM <key> [<size> b; <expiry> s]" lines with the
// global limit applied, ending with END. The rendering is shared by
// the sequential executors and the parallel intercept, so a dump's
// bytes are identical however it was gathered.
func appendDumpEntries(dst []byte, perShard [][]DumpEntry, limit int) []byte {
	n := 0
	for _, entries := range perShard {
		for _, e := range entries {
			if limit > 0 && n >= limit {
				break
			}
			dst = append(dst, "ITEM "...)
			dst = append(dst, e.Key...)
			dst = append(dst, " ["...)
			dst = strconv.AppendInt(dst, int64(e.Size), 10)
			dst = append(dst, " b; "...)
			dst = strconv.AppendInt(dst, e.ExpireAt, 10)
			dst = append(dst, " s]\r\n"...)
			n++
		}
	}
	return append(dst, replyEnd...)
}

// cachedumpAppend executes "stats cachedump" sequentially: snapshot
// the selected shards in order, render, done. The ICilk server
// intercepts the same request shape and gathers the shard snapshots
// in parallel instead (see ICilkServer.cachedumpParallel); the reply
// bytes are identical by construction.
func cachedumpAppend(dst []byte, s *Store, shardSel, limitStr string) []byte {
	shards, limit, ok := cachedumpArgs(s, shardSel, limitStr)
	if !ok {
		return append(dst, replyBadCachedump...)
	}
	perShard := make([][]DumpEntry, len(shards))
	for i, si := range shards {
		perShard[i] = s.DumpShard(si, limit)
	}
	return appendDumpEntries(dst, perShard, limit)
}

// statsReply renders the "stats" command output.
func statsReply(s *Store) []byte {
	var b strings.Builder
	stat := func(k string, v int64) { fmt.Fprintf(&b, "STAT %s %d\r\n", k, v) }
	stat("uptime", s.Uptime())
	stat("curr_items", s.Stats.CurrItems.Load())
	stat("total_items", s.Stats.TotalItems.Load())
	stat("bytes", s.Bytes())
	stat("get_hits", s.Stats.GetHits.Load())
	stat("get_misses", s.Stats.GetMisses.Load())
	stat("cmd_set", s.Stats.Sets.Load())
	stat("delete_hits", s.Stats.Deletes.Load())
	stat("evictions", s.Stats.Evictions.Load())
	stat("expired_unfetched", s.Stats.Expired.Load())
	stat("cas_hits", s.Stats.CasHits.Load())
	stat("cas_misses", s.Stats.CasMisses.Load())
	stat("cas_badval", s.Stats.CasBadval.Load())
	chunks, free := s.FreeStats()
	stat("free_chunks", chunks)
	stat("free_bytes", free)
	b.WriteString(replyEnd)
	return []byte(b.String())
}
