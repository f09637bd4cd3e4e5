package memcached

import (
	"strings"
	"testing"
)

func TestParseGet(t *testing.T) {
	r, need, err := ParseCommand("get foo bar")
	if err != nil || need != -1 {
		t.Fatalf("err=%v need=%d", err, need)
	}
	if r.Op != "get" || len(r.Keys) != 2 || r.Keys[0] != "foo" || r.Keys[1] != "bar" {
		t.Fatalf("req = %+v", r)
	}
	if _, _, err := ParseCommand("get"); err == nil {
		t.Fatal("get with no key accepted")
	}
}

func TestParseSet(t *testing.T) {
	r, need, err := ParseCommand("set foo 42 100 5")
	if err != nil {
		t.Fatal(err)
	}
	if need != 5 || r.Key != "foo" || r.Flags != 42 || r.Exptime != 100 || r.NoReply {
		t.Fatalf("req = %+v need=%d", r, need)
	}
	r, _, err = ParseCommand("set foo 0 0 3 noreply")
	if err != nil || !r.NoReply {
		t.Fatalf("noreply not parsed: %+v %v", r, err)
	}
	if _, _, err := ParseCommand("set foo 0 0"); err == nil {
		t.Fatal("short set accepted")
	}
	if _, _, err := ParseCommand("set foo 0 0 x"); err == nil {
		t.Fatal("non-numeric bytes accepted")
	}
}

func TestParseCas(t *testing.T) {
	r, need, err := ParseCommand("cas foo 1 2 3 77")
	if err != nil || need != 3 || r.CasUnique != 77 {
		t.Fatalf("cas parse: %+v need=%d err=%v", r, need, err)
	}
	r, _, err = ParseCommand("cas foo 1 2 3 77 noreply")
	if err != nil || !r.NoReply {
		t.Fatalf("cas noreply: %+v err=%v", r, err)
	}
}

func TestParseIncrTouchDelete(t *testing.T) {
	r, _, err := ParseCommand("incr n 5")
	if err != nil || r.Delta != 5 {
		t.Fatalf("incr: %+v %v", r, err)
	}
	if _, _, err := ParseCommand("incr n abc"); err == nil {
		t.Fatal("bad delta accepted")
	}
	r, _, err = ParseCommand("touch k 30")
	if err != nil || r.Exptime != 30 {
		t.Fatalf("touch: %+v %v", r, err)
	}
	r, _, err = ParseCommand("delete k noreply")
	if err != nil || !r.NoReply {
		t.Fatalf("delete: %+v %v", r, err)
	}
}

func TestParseUnknownAndEmpty(t *testing.T) {
	if _, _, err := ParseCommand("bogus_cmd x"); err == nil || err.Error() != "ERROR" {
		t.Fatalf("unknown command err = %v", err)
	}
	r, _, err := ParseCommand("   ")
	if r != nil || err != nil {
		t.Fatal("blank line should be skipped silently")
	}
}

func exec(t *testing.T, s *Store, line string, data string) string {
	t.Helper()
	r, need, err := ParseCommand(line)
	if err != nil {
		return err.Error() + "\r\n"
	}
	if need >= 0 {
		r.Data = []byte(data)
	}
	reply, _ := Execute(s, r)
	return string(reply)
}

// execB is exec on the in-place path (ParseCommandB / SetData /
// ExecuteAppend): data is followed by CRLF as on the wire, and the
// block the command line declared is cut from that.
func execB(t *testing.T, s *Store, line string, data string) string {
	t.Helper()
	var r RequestB
	need, perr := ParseCommandB([]byte(line), &r)
	if perr != nil {
		return string(perr)
	}
	if need >= 0 {
		wire := []byte(data + "\r\n")
		if bad := r.SetData(wire[:need+2]); bad != nil {
			return string(bad)
		}
	}
	reply, _ := ExecuteAppend(s, &r, nil)
	return string(reply)
}

func TestExecuteRoundTrip(t *testing.T) {
	s := NewStore(StoreConfig{})
	if got := exec(t, s, "set k 5 0 5", "hello"); got != "STORED\r\n" {
		t.Fatalf("set reply %q", got)
	}
	got := exec(t, s, "get k", "")
	if !strings.HasPrefix(got, "VALUE k 5 5\r\nhello\r\n") || !strings.HasSuffix(got, "END\r\n") {
		t.Fatalf("get reply %q", got)
	}
	if got := exec(t, s, "get missing", ""); got != "END\r\n" {
		t.Fatalf("miss reply %q", got)
	}
	got = exec(t, s, "gets k", "")
	if !strings.Contains(got, "VALUE k 5 5 ") {
		t.Fatalf("gets reply %q", got)
	}
	if got := exec(t, s, "delete k", ""); got != "DELETED\r\n" {
		t.Fatalf("delete reply %q", got)
	}
	if got := exec(t, s, "delete k", ""); got != "NOT_FOUND\r\n" {
		t.Fatalf("second delete reply %q", got)
	}
}

func TestExecuteIncrReplies(t *testing.T) {
	s := NewStore(StoreConfig{})
	exec(t, s, "set n 0 0 2", "10")
	if got := exec(t, s, "incr n 7", ""); got != "17\r\n" {
		t.Fatalf("incr reply %q", got)
	}
	if got := exec(t, s, "incr missing 1", ""); got != "NOT_FOUND\r\n" {
		t.Fatalf("incr missing reply %q", got)
	}
	exec(t, s, "set s 0 0 3", "abc")
	if got := exec(t, s, "incr s 1", ""); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("incr non-numeric reply %q", got)
	}
}

func TestExecuteStatsVersionFlush(t *testing.T) {
	s := NewStore(StoreConfig{})
	exec(t, s, "set k 0 0 1", "x")
	got := exec(t, s, "stats", "")
	if !strings.Contains(got, "STAT curr_items 1\r\n") || !strings.HasSuffix(got, "END\r\n") {
		t.Fatalf("stats reply %q", got)
	}
	if got := exec(t, s, "version", ""); !strings.HasPrefix(got, "VERSION ") {
		t.Fatalf("version reply %q", got)
	}
	if got := exec(t, s, "flush_all", ""); got != "OK\r\n" {
		t.Fatalf("flush reply %q", got)
	}
	if s.Len() != 0 {
		t.Fatal("flush_all did not clear store")
	}
}

func TestExecuteQuit(t *testing.T) {
	s := NewStore(StoreConfig{})
	r, _, _ := ParseCommand("quit")
	_, quit := Execute(s, r)
	if !quit {
		t.Fatal("quit did not signal close")
	}
}

func TestNoReplySuppressesOutput(t *testing.T) {
	s := NewStore(StoreConfig{})
	if got := exec(t, s, "set k 0 0 1 noreply", "x"); got != "" {
		t.Fatalf("noreply set produced %q", got)
	}
	if got := exec(t, s, "delete k noreply", ""); got != "" {
		t.Fatalf("noreply delete produced %q", got)
	}
}

func TestStatsReset(t *testing.T) {
	s := NewStore(StoreConfig{})
	exec(t, s, "set k 0 0 1", "x")
	exec(t, s, "get k", "")
	if s.Stats.GetHits.Load() != 1 {
		t.Fatal("hit not counted")
	}
	if got := exec(t, s, "stats reset", ""); got != "RESET\r\n" {
		t.Fatalf("stats reset -> %q", got)
	}
	if s.Stats.GetHits.Load() != 0 || s.Stats.Sets.Load() != 0 {
		t.Fatal("counters not reset")
	}
	if s.Stats.CurrItems.Load() != 1 {
		t.Fatal("gauge CurrItems was wrongly reset")
	}
}

func TestLruCrawlerCommand(t *testing.T) {
	s := NewStore(StoreConfig{Shards: 2})
	exec(t, s, "set dead 0 0 1", "x")
	// Force expiry deterministically with an absolute past timestamp.
	sh := s.shardForB([]byte("dead"))
	sh.mu.Lock()
	sh.table["dead"].ExpireAt = 1
	sh.mu.Unlock()

	if got := exec(t, s, "lru_crawler crawl all", ""); got != "OK\r\n" {
		t.Fatalf("crawl all -> %q", got)
	}
	if s.Len() != 0 {
		t.Fatalf("expired item survived crawl: len=%d", s.Len())
	}
	if got := exec(t, s, "lru_crawler crawl 0,1", ""); got != "OK\r\n" {
		t.Fatalf("crawl ids -> %q", got)
	}
	// Ids outside [0, Shards()) come from the client and are refused
	// by both executors.
	for _, run := range []func(*testing.T, *Store, string, string) string{exec, execB} {
		for _, line := range []string{"lru_crawler crawl -1", "lru_crawler crawl 2", "lru_crawler crawl 0,2"} {
			if got := run(t, s, line, ""); got != "CLIENT_ERROR bad class id\r\n" {
				t.Fatalf("%q -> %q", line, got)
			}
		}
	}
	if got := exec(t, s, "lru_crawler crawl zzz", ""); got == "OK\r\n" {
		t.Fatalf("bad class id accepted: %q", got)
	}
	if got := exec(t, s, "lru_crawler bogus", ""); got == "OK\r\n" {
		t.Fatalf("bad subcommand accepted: %q", got)
	}
	if _, _, err := ParseCommand("lru_crawler"); err == nil {
		t.Fatal("bare lru_crawler accepted")
	}
}
