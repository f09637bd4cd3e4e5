package memcached

// The allocation-free text-protocol path: ParseCommandB parses a
// command line in place (fields stay views into the connection
// buffer) and ExecuteAppend encodes the reply into a caller-provided
// scratch buffer. ParseCommand/Execute in protocol.go are the
// string-based reference implementations; the fuzz parity test
// asserts this path produces byte-for-byte identical responses.

import (
	"strconv"

	"icilk/internal/wire"
)

// opCode discriminates parsed commands without retaining an Op
// string.
type opCode uint8

// Parsed command codes. opSkip marks a syntactically empty line.
const (
	opSkip opCode = iota
	opGet
	opGets
	opSet
	opAdd
	opReplace
	opAppend
	opPrepend
	opCas
	opDelete
	opIncr
	opDecr
	opTouch
	opStats
	opVersion
	opVerbosity
	opFlushAll
	opQuit
	opLRUCrawler
)

// Preallocated error replies (the in-place parser reports errors as
// ready-to-write reply lines instead of constructing error values).
var (
	errReplyError        = []byte(replyError)
	errReplyGetNoKey     = []byte("CLIENT_ERROR get requires a key\r\n")
	errReplyBadStorage   = []byte("CLIENT_ERROR bad storage command\r\n")
	errReplyBadStoreArgs = []byte("CLIENT_ERROR bad storage parameters\r\n")
	errReplyBadCas       = []byte("CLIENT_ERROR bad cas unique\r\n")
	errReplyBadDelete    = []byte("CLIENT_ERROR bad delete\r\n")
	errReplyBadIncr      = []byte("CLIENT_ERROR bad incr\r\n")
	errReplyBadDecr      = []byte("CLIENT_ERROR bad decr\r\n")
	errReplyBadDelta     = []byte("CLIENT_ERROR invalid numeric delta argument\r\n")
	errReplyBadTouch     = []byte("CLIENT_ERROR bad touch\r\n")
	errReplyBadExptime   = []byte("CLIENT_ERROR bad exptime\r\n")
	errReplyCrawlerNoSub = []byte("CLIENT_ERROR lru_crawler requires a subcommand\r\n")
	errReplyTooLarge     = []byte(replyTooLarge)
	errReplyBadDataChunk = []byte(replyBadDataChnk)
)

// RequestB is one protocol command parsed in place: Keys, Key and
// Data are views into the connection's read buffer, valid only until
// the next read on that connection (callers that must hold a field
// across a read — the storage-command key across its data block —
// copy it to per-connection scratch first).
type RequestB struct {
	Op        opCode
	Keys      [][]byte // get/gets; sub-arguments for stats/lru_crawler
	Key       []byte   // single-key commands
	Flags     uint32
	Exptime   int64
	Bytes     int // data block length for storage commands
	CasUnique uint64
	Delta     uint64
	NoReply   bool
	Data      []byte // storage payload, attached after the block is read

	fields [][]byte // reused split scratch
}

// Reset prepares r for reuse without releasing its slices' capacity.
func (r *RequestB) Reset() {
	r.Op = opSkip
	r.Keys = r.Keys[:0]
	r.Key = nil
	r.Flags, r.Exptime, r.Bytes, r.CasUnique, r.Delta = 0, 0, 0, 0, 0
	r.NoReply = false
	r.Data = nil
}

// ParseCommandB parses a command line (without the trailing CRLF)
// into r without allocating. needData reports how many payload bytes
// must be read as a data block before the command can execute (-1
// when none). A non-nil errReply is the complete error response to
// write; r.Op == opSkip with nil errReply signals an empty line to
// skip. Accept/reject behaviour matches ParseCommand exactly. One
// errReply ends the connection: see closesConn.
func ParseCommandB(line []byte, r *RequestB) (needData int, errReply []byte) {
	r.Reset()
	r.fields = wire.Fields(r.fields[:0], line)
	fields := r.fields
	if len(fields) == 0 {
		return -1, nil
	}
	args := fields[1:]

	switch string(fields[0]) {
	case "get", "gets":
		if len(args) == 0 {
			return -1, errReplyGetNoKey
		}
		r.Op = opGet
		if len(fields[0]) == 4 { // "gets"
			r.Op = opGets
		}
		r.Keys = append(r.Keys, args...)
		return -1, nil

	case "set", "add", "replace", "append", "prepend", "cas":
		switch string(fields[0]) {
		case "set":
			r.Op = opSet
		case "add":
			r.Op = opAdd
		case "replace":
			r.Op = opReplace
		case "append":
			r.Op = opAppend
		case "prepend":
			r.Op = opPrepend
		default:
			r.Op = opCas
		}
		wantArgs := 4
		if r.Op == opCas {
			wantArgs = 5
		}
		if len(args) < wantArgs || len(args) > wantArgs+1 {
			return -1, errReplyBadStorage
		}
		r.Key = args[0]
		f64, ok1 := wire.ParseUint(args[1], 32)
		exp, ok2 := wire.ParseInt(args[2], 64)
		nbytes, ok3 := wire.ParseInt(args[3], 64)
		if !ok1 || !ok2 || !ok3 || nbytes < 0 {
			return -1, errReplyBadStoreArgs
		}
		if nbytes > maxItemBytes {
			return -1, errReplyTooLarge
		}
		r.Flags = uint32(f64)
		r.Exptime = exp
		r.Bytes = int(nbytes)
		rest := args[4:]
		if r.Op == opCas {
			cu, ok := wire.ParseUint(args[4], 64)
			if !ok {
				return -1, errReplyBadCas
			}
			r.CasUnique = cu
			rest = args[5:]
		}
		if len(rest) == 1 {
			if string(rest[0]) != "noreply" {
				return -1, errReplyBadStorage
			}
			r.NoReply = true
		}
		return r.Bytes, nil

	case "delete":
		if len(args) < 1 || len(args) > 2 {
			return -1, errReplyBadDelete
		}
		r.Op = opDelete
		r.Key = args[0]
		r.NoReply = len(args) == 2 && string(args[1]) == "noreply"
		return -1, nil

	case "incr", "decr":
		incr := fields[0][0] == 'i'
		if len(args) < 2 || len(args) > 3 {
			if incr {
				return -1, errReplyBadIncr
			}
			return -1, errReplyBadDecr
		}
		r.Op = opIncr
		if !incr {
			r.Op = opDecr
		}
		r.Key = args[0]
		d, ok := wire.ParseUint(args[1], 64)
		if !ok {
			return -1, errReplyBadDelta
		}
		r.Delta = d
		r.NoReply = len(args) == 3 && string(args[2]) == "noreply"
		return -1, nil

	case "touch":
		if len(args) < 2 || len(args) > 3 {
			return -1, errReplyBadTouch
		}
		r.Op = opTouch
		r.Key = args[0]
		exp, ok := wire.ParseInt(args[1], 64)
		if !ok {
			return -1, errReplyBadExptime
		}
		r.Exptime = exp
		r.NoReply = len(args) == 3 && string(args[2]) == "noreply"
		return -1, nil

	case "stats", "version", "verbosity", "flush_all", "quit":
		switch string(fields[0]) {
		case "stats":
			r.Op = opStats
		case "version":
			r.Op = opVersion
		case "verbosity":
			r.Op = opVerbosity
		case "flush_all":
			r.Op = opFlushAll
		default:
			r.Op = opQuit
		}
		if r.Op == opFlushAll || r.Op == opVerbosity {
			r.NoReply = len(args) > 0 && string(args[len(args)-1]) == "noreply"
		}
		r.Keys = append(r.Keys, args...) // sub-arguments ("stats reset")
		return -1, nil

	case "lru_crawler":
		if len(args) == 0 {
			return -1, errReplyCrawlerNoSub
		}
		r.Op = opLRUCrawler
		r.Keys = append(r.Keys, args...)
		return -1, nil

	default:
		return -1, errReplyError
	}
}

// errReplyLineTooLong answers a command line that ran past the line
// bound with no newline (icilk.ErrLineTooLong, or the pthread
// frontend's own scan); the connection closes after it.
var errReplyLineTooLong = []byte(replyLineTooLong)

// closesConn reports whether errReply, a ParseCommandB error, is the
// rejection of a data block over maxItemBytes. That block is on the
// wire and will not be read, so the framing is lost: the caller
// writes the reply and closes the connection.
func closesConn(errReply []byte) bool { return &errReply[0] == &errReplyTooLarge[0] }

// SetData attaches a storage command's data block. raw is the r.Bytes
// payload bytes the command line declared plus the two after them,
// which must be "\r\n". When they are not, the declared length was
// wrong and raw holds part of the next command: nothing is attached
// and the caller, instead of executing r, writes the returned reply
// and carries on with the stream, as memcached does.
func (r *RequestB) SetData(raw []byte) (errReply []byte) {
	n := len(raw) - 2
	if raw[n] != '\r' || raw[n+1] != '\n' {
		return errReplyBadDataChunk
	}
	r.Data = raw[:n]
	return nil
}

// AppendValueLine appends one "VALUE <key> <flags> <len>[ <cas>]",
// the value block, and CRLF framing to dst — the per-key unit of a
// GET response, and the text protocol's HitRenderer; the bytes are
// identical to ExecuteAppend's for the same hit.
func AppendValueLine(dst []byte, key, value []byte, flags uint32, cas uint64, withCAS bool) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(value)), 10)
	if withCAS {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, cas, 10)
	}
	dst = append(dst, '\r', '\n')
	dst = append(dst, value...)
	return append(dst, '\r', '\n')
}

// AppendGetEnd appends the terminating "END" line of a GET response.
func AppendGetEnd(dst []byte) []byte { return append(dst, replyEnd...) }

// ExecuteAppend runs a parsed request against the store, appending
// the protocol reply to dst (unchanged for noreply) and returning it.
// quit reports that the connection should close. The reply bytes are
// identical to Execute's for the same input; dst is typically a
// per-connection scratch buffer, making the hot commands (get hits in
// particular) allocation-free.
func ExecuteAppend(s *Store, r *RequestB, dst []byte) (out []byte, quit bool) {
	switch r.Op {
	case opGet, opGets:
		withCAS := r.Op == opGets
		for _, key := range r.Keys {
			dst, _ = s.AppendHit(dst, key, withCAS, AppendValueLine)
		}
		return append(dst, replyEnd...), false

	case opSet, opAdd, opReplace, opAppend, opPrepend, opCas:
		var mode SetMode
		switch r.Op {
		case opSet:
			mode = ModeSet
		case opAdd:
			mode = ModeAdd
		case opReplace:
			mode = ModeReplace
		case opAppend:
			mode = ModeAppend
		case opPrepend:
			mode = ModePrepend
		default:
			mode = ModeCAS
		}
		res := s.SetB(mode, r.Key, r.Data, r.Flags, r.Exptime, r.CasUnique)
		if r.NoReply {
			return dst, false
		}
		switch res {
		case Stored:
			return append(dst, replyStored...), false
		case NotStored:
			return append(dst, replyNotStored...), false
		case Exists:
			return append(dst, replyExists...), false
		default:
			return append(dst, replyNotFound...), false
		}

	case opDelete:
		ok := s.DeleteB(r.Key)
		if r.NoReply {
			return dst, false
		}
		if ok {
			return append(dst, replyDeleted...), false
		}
		return append(dst, replyNotFound...), false

	case opIncr, opDecr:
		nv, ok, numeric := s.IncrDecrB(r.Key, r.Delta, r.Op == opIncr)
		if r.NoReply {
			return dst, false
		}
		switch {
		case !ok:
			return append(dst, replyNotFound...), false
		case !numeric:
			return append(dst, replyNonNumeric...), false
		default:
			dst = strconv.AppendUint(dst, nv, 10)
			return append(dst, '\r', '\n'), false
		}

	case opTouch:
		ok := s.TouchB(r.Key, r.Exptime)
		if r.NoReply {
			return dst, false
		}
		if ok {
			return append(dst, replyTouched...), false
		}
		return append(dst, replyNotFound...), false

	case opStats:
		if len(r.Keys) == 1 && string(r.Keys[0]) == "reset" {
			s.Stats.Reset()
			return append(dst, "RESET\r\n"...), false
		}
		if len(r.Keys) > 0 && string(r.Keys[0]) == "cachedump" {
			if len(r.Keys) != 3 {
				return append(dst, replyBadCachedump...), false
			}
			return cachedumpAppend(dst, s, string(r.Keys[1]), string(r.Keys[2])), false
		}
		return append(dst, statsReply(s)...), false

	case opLRUCrawler:
		// Cold administrative path; allocation parity with Execute is
		// not a goal here, byte parity is.
		switch string(r.Keys[0]) {
		case "crawl":
			sel := "all"
			if len(r.Keys) > 1 {
				sel = string(r.Keys[1])
			}
			return crawlAppend(dst, s, sel), false
		default:
			return append(dst, "CLIENT_ERROR unknown lru_crawler subcommand\r\n"...), false
		}

	case opVersion:
		return append(dst, "VERSION 1.6-icilk-repro\r\n"...), false

	case opVerbosity:
		if r.NoReply {
			return dst, false
		}
		return append(dst, replyOK...), false

	case opFlushAll:
		s.FlushAll()
		if r.NoReply {
			return dst, false
		}
		return append(dst, replyOK...), false

	case opQuit:
		return dst, true
	}
	return append(dst, replyError...), false
}
