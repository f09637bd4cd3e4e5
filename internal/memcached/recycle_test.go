package memcached

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The store overwrites values in place and hands evicted buffers to the
// next insert, so a reader that let a view of a value out of the shard
// lock would no longer see stale-but-whole garbage: it would see bytes
// of two values. The values below say what they must look like, so any
// reply can be checked whole without knowing which write it read.

// appendChunk appends the n-byte chunk that (key, ver) determines:
// "<key>:<ver>:<n>:" padded with a letter chosen by ver. A stored value
// is one chunk (set) followed by any number of appended ones.
func appendChunk(dst []byte, key string, ver, n int) []byte {
	start := len(dst)
	dst = append(append(dst, key...), ':')
	dst = append(strconv.AppendInt(dst, int64(ver), 10), ':')
	dst = append(strconv.AppendInt(dst, int64(n), 10), ':')
	for len(dst)-start < n {
		dst = append(dst, byte('a'+ver%26))
	}
	return dst
}

// checkChunks verifies v is a whole sequence of key's chunks and
// returns the first one's version (which a set also stores as flags).
func checkChunks(key string, v []byte) (ver int, err error) {
	var want []byte
	for first := true; first || len(v) > 0; first = false {
		f := bytes.SplitN(v, []byte(":"), 4)
		if len(f) < 4 || string(f[0]) != key {
			return 0, fmt.Errorf("no chunk header for %s at %.40q", key, v)
		}
		cv, err1 := strconv.Atoi(string(f[1]))
		n, err2 := strconv.Atoi(string(f[2]))
		if err1 != nil || err2 != nil || n > len(v) {
			return 0, fmt.Errorf("bad chunk header %.40q (%d bytes left)", v, len(v))
		}
		if want = appendChunk(want[:0], key, cv, n); !bytes.Equal(v[:n], want) {
			return 0, fmt.Errorf("torn chunk %s/%d/%d: %.60q", key, cv, n, v[:n])
		}
		if first {
			ver = cv
		}
		v = v[n:]
	}
	return ver, nil
}

// checkValue checks one hit: chunk keys ("k..") carry chunks and their
// set's version as flags, counter keys ("n..") decimal digits.
func checkValue(key string, flags uint32, v []byte) error {
	if key[0] == 'n' {
		if _, err := strconv.ParseUint(string(v), 10, 64); err != nil {
			return fmt.Errorf("counter %s holds %.40q", key, v)
		}
		return nil
	}
	ver, err := checkChunks(key, v)
	if err == nil && uint32(ver) != flags {
		err = fmt.Errorf("%s: flags %d beside the value of version %d", key, flags, ver)
	}
	return err
}

// checkGetReply parses a whole text GET reply for keys: VALUE blocks
// for a subsequence of them, in order, each checked, then END.
func checkGetReply(reply []byte, keys []string) error {
	for {
		if string(reply) == replyEnd {
			return nil
		}
		eol := bytes.Index(reply, []byte("\r\n"))
		f := bytes.Fields(reply[:max(eol, 0)])
		if len(f) != 4 || string(f[0]) != "VALUE" {
			return fmt.Errorf("want a VALUE line at %.60q", reply)
		}
		for len(keys) > 0 && keys[0] != string(f[1]) {
			keys = keys[1:]
		}
		flags, err1 := strconv.ParseUint(string(f[2]), 10, 32)
		n, err2 := strconv.Atoi(string(f[3]))
		rest := reply[eol+2:]
		if len(keys) == 0 || err1 != nil || err2 != nil || n+2 > len(rest) || string(rest[n:n+2]) != "\r\n" {
			return fmt.Errorf("bad VALUE block at %.60q", reply)
		}
		if err := checkValue(keys[0], uint32(flags), rest[:n]); err != nil {
			return err
		}
		keys, reply = keys[1:], rest[n+2:]
	}
}

// TestConcurrentRecycleNoTornValue: writers, readers (get and 16-key
// get), a deleter, an appender, a counter, a flusher and a dumper
// share a small key space in a store whose budget holds a handful of
// values, so items are overwritten in place, evicted, listed and
// reused continuously, across four size classes. Every reply is
// checked whole, and every key that DumpShard hands out must be one
// that was set and must stay what it was once the item it was read
// from has been evicted and its key buffer rewritten. With icilk_debug
// released buffers are poisoned and the crawl asserts the free lists
// against the live set.
func TestConcurrentRecycleNoTornValue(t *testing.T) {
	const (
		chunkKeys, counterKeys = 24, 4
		iters                  = 3000
	)
	lens := []int{24, 100, 700, 3000} // classes 24, 112, 768 and 3072
	var keys []string
	for i := 0; i < chunkKeys; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", i))
	}
	for i := 0; i < counterKeys; i++ {
		keys = append(keys, fmt.Sprintf("n%d", i))
	}
	isKey := make(map[string]bool)
	for _, k := range keys {
		isKey[k] = true
	}
	s := NewStore(StoreConfig{Shards: 2, MaxBytes: 24 << 10})

	var (
		wg     sync.WaitGroup
		failed atomic.Bool
		vers   atomic.Int64
		actors int64
	)
	// actor runs op iters times on its own goroutine with its own
	// scratch; the first error stops everyone.
	actor := func(name string, op func(r *rand.Rand, i int, reply []byte) ([]byte, error)) {
		wg.Add(1)
		actors++
		r := rand.New(rand.NewSource(actors))
		go func() {
			defer wg.Done()
			var reply []byte
			for i := 0; i < iters && !failed.Load(); i++ {
				var err error
				if reply, err = op(r, i, reply[:0]); err != nil {
					failed.Store(true)
					t.Errorf("%s, op %d: %v", name, i, err)
				}
			}
		}()
	}
	// text runs one command on the in-place path.
	text := func(reply []byte, line string, data []byte) []byte {
		var req RequestB
		if need, perr := ParseCommandB([]byte(line), &req); perr != nil || (need >= 0) != (data != nil) {
			panic(fmt.Sprintf("parse %q: %d %q", line, need, perr))
		}
		req.Data = data
		reply, _ = ExecuteAppend(s, &req, reply)
		return reply
	}
	// payload is what a writer stores under key: a fresh chunk, or for a
	// counter a run of nines that the next incr lengthens.
	payload := func(r *rand.Rand, key string) (data []byte, ver int) {
		if key[0] == 'n' {
			return bytes.Repeat([]byte("9"), []int{1, 2, 16}[r.Intn(3)]), 0
		}
		ver = int(vers.Add(1))
		return appendChunk(nil, key, ver, lens[r.Intn(len(lens))]), ver
	}
	wantReply := func(reply []byte, want ...string) error {
		for _, w := range want {
			if string(reply) == w {
				return nil
			}
		}
		return fmt.Errorf("reply %.60q, want one of %q", reply, want)
	}

	for _, name := range []string{"text writer 1", "text writer 2"} {
		actor(name, func(r *rand.Rand, _ int, reply []byte) ([]byte, error) {
			key := keys[r.Intn(len(keys))]
			data, ver := payload(r, key)
			reply = text(reply, fmt.Sprintf("set %s %d 0 %d", key, ver, len(data)), data)
			return reply, wantReply(reply, replyStored)
		})
	}
	for _, name := range []string{"text reader 1", "text reader 2"} {
		actor(name, func(r *rand.Rand, _ int, reply []byte) ([]byte, error) {
			key := keys[r.Intn(len(keys))]
			reply = text(reply, "get "+key, nil)
			return reply, checkGetReply(reply, []string{key})
		})
	}
	actor("multi-get reader", func(r *rand.Rand, _ int, reply []byte) ([]byte, error) {
		at := r.Intn(len(keys) - 16)
		line := "get"
		for _, k := range keys[at : at+16] {
			line += " " + k
		}
		reply = text(reply, line, nil)
		return reply, checkGetReply(reply, keys[at:at+16])
	})
	actor("deleter", func(r *rand.Rand, _ int, reply []byte) ([]byte, error) {
		reply = text(reply, "delete "+keys[r.Intn(len(keys))], nil)
		return reply, wantReply(reply, replyDeleted, replyNotFound)
	})
	actor("appender", func(r *rand.Rand, _ int, reply []byte) ([]byte, error) {
		key := keys[r.Intn(chunkKeys)]
		data := appendChunk(nil, key, int(vers.Add(1)), lens[r.Intn(2)])
		reply = text(reply, fmt.Sprintf("append %s 0 0 %d", key, len(data)), data)
		return reply, wantReply(reply, replyStored, replyNotStored)
	})
	actor("counter", func(r *rand.Rand, _ int, reply []byte) ([]byte, error) {
		reply = text(reply, fmt.Sprintf("incr n%d 1", r.Intn(counterKeys)), nil)
		if string(reply) == replyNotFound {
			return reply, nil
		}
		_, err := strconv.ParseUint(string(bytes.TrimSuffix(reply, []byte("\r\n"))), 10, 64)
		return reply, err
	})
	actor("flusher", func(_ *rand.Rand, i int, reply []byte) ([]byte, error) {
		if i%500 == 499 {
			reply = text(reply, "flush_all", nil)
			return reply, wantReply(reply, replyOK)
		}
		s.CrawlShard(i)
		return reply, nil
	})
	// A key that aliased its item's key buffer would be rewritten by the
	// insert that recycles the item: the dumper holds each dump, with
	// copies of its keys, across a yield to the writers and compares.
	// The byte-by-byte read is one the race detector sees (a string
	// comparison or a map lookup is not).
	sameKey := func(got, want string) bool {
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == want[i]
		}
		return same
	}
	var (
		dumped []DumpEntry
		held   []string
	)
	actor("dumper", func(_ *rand.Rand, i int, reply []byte) ([]byte, error) {
		runtime.Gosched()
		for j, e := range dumped {
			if !sameKey(e.Key, held[j]) {
				return reply, fmt.Errorf("DumpShard returned key %q, which has since become %q", held[j], e.Key)
			}
		}
		dumped, held = s.DumpShard(i, 0), held[:0]
		for _, e := range dumped {
			if !isKey[e.Key] {
				return reply, fmt.Errorf("DumpShard returned key %q, never set", e.Key)
			}
			held = append(held, strings.Clone(e.Key))
		}
		return reply, nil
	})
	wg.Wait()

	if s.Stats.Evictions.Load() == 0 || s.Stats.GetHits.Load() == 0 {
		t.Errorf("%d evictions, %d hits: the test did not reach recycling", s.Stats.Evictions.Load(), s.Stats.GetHits.Load())
	}
	if chunks, _ := s.FreeStats(); chunks == 0 {
		t.Error("free lists empty after the run")
	}
}
