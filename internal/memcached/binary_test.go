package memcached

import (
	"encoding/binary"
	"testing"
	"time"

	"icilk"
	"icilk/internal/netsim"
)

// binRequest builds a binary request frame.
func binRequest(opcode uint8, opaque uint32, cas uint64, extras, key, value []byte) []byte {
	body := len(extras) + len(key) + len(value)
	out := make([]byte, 24+body)
	out[0] = binReqMagic
	out[1] = opcode
	binary.BigEndian.PutUint16(out[2:], uint16(len(key)))
	out[4] = uint8(len(extras))
	binary.BigEndian.PutUint32(out[8:], uint32(body))
	binary.BigEndian.PutUint32(out[12:], opaque)
	binary.BigEndian.PutUint64(out[16:], cas)
	n := 24
	n += copy(out[n:], extras)
	n += copy(out[n:], key)
	copy(out[n:], value)
	return out
}

// setExtras builds SET/ADD/REPLACE extras (flags, exptime).
func setExtras(flags, exptime uint32) []byte {
	var ex [8]byte
	binary.BigEndian.PutUint32(ex[0:], flags)
	binary.BigEndian.PutUint32(ex[4:], exptime)
	return ex[:]
}

// binExec runs one frame through ExecuteBinary.
func binExec(t *testing.T, s *Store, frame []byte) (binHeader, []byte, bool) {
	t.Helper()
	h := parseBinHeader(frame)
	resp, quit := ExecuteBinary(s, h, frame[24:])
	if resp == nil {
		return binHeader{}, nil, quit
	}
	rh := parseBinHeader(resp)
	return rh, resp[24:], quit
}

func TestBinarySetGetRoundTrip(t *testing.T) {
	s := NewStore(StoreConfig{})
	rh, _, _ := binExec(t, s, binRequest(binOpSet, 7, 0, setExtras(0xdead, 0), []byte("k"), []byte("value!")))
	if rh.status != binStatusOK || rh.opaque != 7 || rh.cas == 0 {
		t.Fatalf("set response: %+v", rh)
	}
	rh, body, _ := binExec(t, s, binRequest(binOpGet, 9, 0, nil, []byte("k"), nil))
	if rh.status != binStatusOK || rh.opaque != 9 {
		t.Fatalf("get response: %+v", rh)
	}
	flags := binary.BigEndian.Uint32(body[:4])
	if flags != 0xdead || string(body[4:]) != "value!" {
		t.Fatalf("get body: flags=%x value=%q", flags, body[4:])
	}
}

func TestBinaryGetVariants(t *testing.T) {
	s := NewStore(StoreConfig{})
	binExec(t, s, binRequest(binOpSet, 0, 0, setExtras(0, 0), []byte("k"), []byte("v")))

	// GETK echoes the key.
	rh, body, _ := binExec(t, s, binRequest(binOpGetK, 0, 0, nil, []byte("k"), nil))
	if rh.keyLen != 1 || string(body[4:5]) != "k" || string(body[5:]) != "v" {
		t.Fatalf("getk: %+v %q", rh, body)
	}
	// GET miss.
	rh, _, _ = binExec(t, s, binRequest(binOpGet, 0, 0, nil, []byte("nope"), nil))
	if rh.status != binStatusKeyNotFound {
		t.Fatalf("miss status = %x", rh.status)
	}
	// GETQ miss: silent.
	h := parseBinHeader(binRequest(binOpGetQ, 0, 0, nil, []byte("nope"), nil))
	resp, _ := ExecuteBinary(s, h, []byte("nope"))
	if resp != nil {
		t.Fatal("quiet miss produced a response")
	}
}

func TestBinaryAddReplaceCAS(t *testing.T) {
	s := NewStore(StoreConfig{})
	if rh, _, _ := binExec(t, s, binRequest(binOpReplace, 0, 0, setExtras(0, 0), []byte("k"), []byte("x"))); rh.status != binStatusKeyNotFound {
		t.Fatalf("replace missing: %x", rh.status)
	}
	if rh, _, _ := binExec(t, s, binRequest(binOpAdd, 0, 0, setExtras(0, 0), []byte("k"), []byte("a"))); rh.status != binStatusOK {
		t.Fatalf("add: %x", rh.status)
	}
	if rh, _, _ := binExec(t, s, binRequest(binOpAdd, 0, 0, setExtras(0, 0), []byte("k"), []byte("b"))); rh.status != binStatusKeyExists {
		t.Fatalf("double add: %x", rh.status)
	}
	// CAS path: set with the wrong cas fails, right cas succeeds.
	rh, _, _ := binExec(t, s, binRequest(binOpGet, 0, 0, nil, []byte("k"), nil))
	goodCAS := rh.cas
	if rh, _, _ := binExec(t, s, binRequest(binOpSet, 0, goodCAS+5, setExtras(0, 0), []byte("k"), []byte("c"))); rh.status != binStatusKeyExists {
		t.Fatalf("stale cas: %x", rh.status)
	}
	if rh, _, _ := binExec(t, s, binRequest(binOpSet, 0, goodCAS, setExtras(0, 0), []byte("k"), []byte("c"))); rh.status != binStatusOK {
		t.Fatalf("good cas: %x", rh.status)
	}
}

// TestBinaryStoreCountsNoGet: a binary set/add/replace answers with the
// CAS the store assigned to that very write, and costs no lookup — the
// executors used to fetch the key again for it, which counted a
// phantom get_hits (or get_misses, when a full store had evicted the
// item at once) per store and bumped the LRU. Both executors.
func TestBinaryStoreCountsNoGet(t *testing.T) {
	paths := map[string]func(s *Store, frame []byte) binHeader{
		"reference": func(s *Store, frame []byte) binHeader {
			resp, _ := ExecuteBinary(s, parseBinHeader(frame), frame[24:])
			return parseBinHeader(resp)
		},
		"append": func(s *Store, frame []byte) binHeader {
			resp, _ := ExecuteBinaryAppend(s, parseBinHeader(frame), frame[24:], nil)
			return parseBinHeader(resp)
		},
	}
	for name, run := range paths {
		// One shard whose budget is a single value: each new key's set
		// evicts the previous key.
		s := NewStore(StoreConfig{Shards: 1, MaxBytes: 8})
		const sets, gets = 30, 7
		for i := 0; i < sets; i++ {
			op := [3]uint8{binOpSet, binOpAdd, binOpReplace}[i%3]
			key := []byte{'k', byte('0' + i/3%2)}
			rh := run(s, binRequest(op, 0, 0, setExtras(0, 0), key, []byte("12345678")))
			if rh.status != binStatusOK {
				continue // add of a present key, replace of an absent one
			}
			if it := s.shards[0].table[string(key)]; it == nil || it.CAS != rh.cas {
				t.Fatalf("%s: store %d answered cas %d, the item is %+v", name, i, rh.cas, it)
			}
		}
		for i := 0; i < gets; i++ {
			run(s, binRequest(binOpGet, 0, 0, nil, []byte{'k', byte('0' + i%3)}, nil))
		}
		hits, misses := statValue(t, s, "get_hits"), statValue(t, s, "get_misses")
		if hits+misses != gets || hits == 0 || misses == 0 {
			t.Errorf("%s: get_hits %d + get_misses %d after %d stores and %d gets, want them to add up to %d", name, hits, misses, sets, gets, gets)
		}
	}
}

func TestBinaryIncrDecr(t *testing.T) {
	s := NewStore(StoreConfig{})
	extras := func(delta, initial uint64, exp uint32) []byte {
		var ex [20]byte
		binary.BigEndian.PutUint64(ex[0:], delta)
		binary.BigEndian.PutUint64(ex[8:], initial)
		binary.BigEndian.PutUint32(ex[16:], exp)
		return ex[:]
	}
	// Missing key with "do not create" exptime.
	if rh, _, _ := binExec(t, s, binRequest(binOpIncr, 0, 0, extras(1, 0, 0xffffffff), []byte("n"), nil)); rh.status != binStatusKeyNotFound {
		t.Fatalf("incr no-create: %x", rh.status)
	}
	// Missing key with create: seeds the initial value.
	rh, body, _ := binExec(t, s, binRequest(binOpIncr, 0, 0, extras(1, 40, 0), []byte("n"), nil))
	if rh.status != binStatusOK || binary.BigEndian.Uint64(body) != 40 {
		t.Fatalf("incr create: %x %v", rh.status, body)
	}
	rh, body, _ = binExec(t, s, binRequest(binOpIncr, 0, 0, extras(2, 0, 0), []byte("n"), nil))
	if binary.BigEndian.Uint64(body) != 42 {
		t.Fatalf("incr: %v", binary.BigEndian.Uint64(body))
	}
	rh, body, _ = binExec(t, s, binRequest(binOpDecr, 0, 0, extras(2, 0, 0), []byte("n"), nil))
	if binary.BigEndian.Uint64(body) != 40 {
		t.Fatalf("decr: %v", binary.BigEndian.Uint64(body))
	}
	// Non-numeric.
	binExec(t, s, binRequest(binOpSet, 0, 0, setExtras(0, 0), []byte("s"), []byte("abc")))
	if rh, _, _ := binExec(t, s, binRequest(binOpIncr, 0, 0, extras(1, 0, 0), []byte("s"), nil)); rh.status != binStatusDeltaBadval {
		t.Fatalf("incr non-numeric: %x", rh.status)
	}
}

func TestBinaryMiscOps(t *testing.T) {
	s := NewStore(StoreConfig{})
	binExec(t, s, binRequest(binOpSet, 0, 0, setExtras(0, 0), []byte("k"), []byte("v")))

	if rh, _, _ := binExec(t, s, binRequest(binOpAppend, 0, 0, nil, []byte("k"), []byte("+"))); rh.status != binStatusOK {
		t.Fatalf("append: %x", rh.status)
	}
	if rh, _, _ := binExec(t, s, binRequest(binOpDelete, 0, 0, nil, []byte("k"), nil)); rh.status != binStatusOK {
		t.Fatalf("delete: %x", rh.status)
	}
	if rh, _, _ := binExec(t, s, binRequest(binOpDelete, 0, 0, nil, []byte("k"), nil)); rh.status != binStatusKeyNotFound {
		t.Fatalf("double delete: %x", rh.status)
	}
	if rh, _, _ := binExec(t, s, binRequest(binOpNoop, 0, 0, nil, nil, nil)); rh.status != binStatusOK {
		t.Fatalf("noop: %x", rh.status)
	}
	rh, body, _ := binExec(t, s, binRequest(binOpVersion, 0, 0, nil, nil, nil))
	if rh.status != binStatusOK || len(body) == 0 {
		t.Fatalf("version: %x %q", rh.status, body)
	}
	if _, _, quit := binExec(t, s, binRequest(binOpQuit, 0, 0, nil, nil, nil)); !quit {
		t.Fatal("quit did not signal close")
	}
	if rh, _, _ := binExec(t, s, binRequest(0x42, 0, 0, nil, nil, nil)); rh.status != binStatusUnknownCommand {
		t.Fatalf("unknown opcode: %x", rh.status)
	}
}

// TestBinaryProtocolOverServer drives the binary protocol end to end
// through the I-Cilk server (protocol sniffing included).
func TestBinaryProtocolOverServer(t *testing.T) {
	store := NewStore(StoreConfig{})
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := NewICilkServer(store, rt, ICilkConfig{})
	ln := netsim.NewListener()
	go srv.Serve(ln)
	defer func() { ln.Close(); srv.Close() }()

	ep, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	// Pipeline set + get in one write.
	var frames []byte
	frames = append(frames, binRequest(binOpSet, 1, 0, setExtras(3, 0), []byte("bk"), []byte("binval"))...)
	frames = append(frames, binRequest(binOpGet, 2, 0, nil, []byte("bk"), nil)...)
	ep.Write(frames)

	// Read both responses from the stream carefully: accumulate all
	// bytes, then parse two frames.
	var buf []byte
	deadline := time.Now().Add(2 * time.Second)
	for {
		var chunk [512]byte
		n, err := ep.Read(chunk[:])
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		buf = append(buf, chunk[:n]...)
		if len(buf) >= 24 {
			h1 := parseBinHeader(buf)
			total1 := 24 + int(h1.bodyLen)
			if len(buf) >= total1+24 {
				h2 := parseBinHeader(buf[total1:])
				if len(buf) >= total1+24+int(h2.bodyLen) {
					if h1.opaque != 1 || h1.status != binStatusOK {
						t.Fatalf("set resp: %+v", h1)
					}
					body2 := buf[total1+24 : total1+24+int(h2.bodyLen)]
					if h2.opaque != 2 || h2.status != binStatusOK || string(body2[4:]) != "binval" {
						t.Fatalf("get resp: %+v %q", h2, body2)
					}
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout; have %d bytes", len(buf))
		}
	}
}
