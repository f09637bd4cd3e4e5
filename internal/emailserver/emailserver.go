// Package emailserver reimplements the multi-user email server
// benchmark used to evaluate Adaptive I-Cilk and Prompt I-Cilk
// (Section 5 of the paper). The server supports four operations at
// three priority levels, highest to lowest:
//
//	send     (level 0) — deliver a message to a user's mailbox
//	sort     (level 1) — sort a user's mailbox
//	compress (level 2) — DEFLATE-compress a mailbox snapshot
//	print    (level 2) — decompress a snapshot and render it
//
// The workload is bursty and mostly sequential ("the email server
// benchmark ... creates sequential tasks and tasks with low
// parallelism in bursts"), which makes it the stress case for Prompt
// I-Cilk's waste accounting. Requests are injected through the
// runtime's external submission interface — the paper's client
// machines simulated connections; the substitution preserves arrival
// timing and priority structure.
package emailserver

import (
	"bytes"
	"cmp"
	"compress/flate"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"icilk"
)

// Priority levels of the operations.
const (
	LevelSend     = 0
	LevelSort     = 1
	LevelCompress = 2
	LevelPrint    = 2
	LevelSearch   = 2
	// Levels is the number of priority levels the server needs.
	Levels = 3
)

// Message is one email.
type Message struct {
	From    string
	Subject string
	Body    []byte
	Seq     int64
}

// Mailbox is one user's message store plus its latest compressed
// snapshot.
type Mailbox struct {
	mu       sync.Mutex
	messages []Message
	snapshot []byte // DEFLATE-compressed rendering, nil until compressed
	seq      int64
	// MaxMessages caps mailbox growth so long benchmark runs have
	// stationary operation costs; oldest messages fall off.
	maxMessages int
}

// Server is the email server: a set of mailboxes plus the runtime the
// operations execute on.
type Server struct {
	rt    *icilk.Runtime
	boxes []*Mailbox
}

// Config sizes the server.
type Config struct {
	// Users is the number of mailboxes. Default 64.
	Users int
	// MaxMessagesPerBox bounds each mailbox. Default 128.
	MaxMessagesPerBox int
}

// New creates a server over rt, which must be configured with at
// least Levels priority levels.
func New(rt *icilk.Runtime, cfg Config) (*Server, error) {
	if rt.Levels() < Levels {
		return nil, fmt.Errorf("emailserver: runtime has %d levels, need %d", rt.Levels(), Levels)
	}
	if cfg.Users <= 0 {
		cfg.Users = 64
	}
	if cfg.MaxMessagesPerBox <= 0 {
		cfg.MaxMessagesPerBox = 128
	}
	s := &Server{rt: rt, boxes: make([]*Mailbox, cfg.Users)}
	for i := range s.boxes {
		s.boxes[i] = &Mailbox{maxMessages: cfg.MaxMessagesPerBox}
	}
	return s, nil
}

// Users returns the mailbox count.
func (s *Server) Users() int { return len(s.boxes) }

// MailboxLen returns user u's current message count (tests).
func (s *Server) MailboxLen(u int) int {
	b := s.boxes[u]
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.messages)
}

// Send submits a send operation and returns its future.
func (s *Server) Send(user int, from, subject string, body []byte) *icilk.Future {
	return s.rt.Submit(s.send(user, from, subject, body))
}

// send describes a send operation (see Request).
func (s *Server) send(user int, from, subject string, body []byte) (int, func(*icilk.Task) any) {
	return LevelSend, func(*icilk.Task) any {
		s.doSend(user, from, subject, body)
		return nil
	}
}

func (s *Server) doSend(user int, from, subject string, body []byte) {
	b := s.boxes[user%len(s.boxes)]
	// Render the stored form outside the lock (header formatting plus
	// a copy — the light, latency-critical work of the benchmark).
	stored := make([]byte, len(body))
	copy(stored, body)
	b.mu.Lock()
	b.seq++
	b.messages = append(b.messages, Message{From: from, Subject: subject, Body: stored, Seq: b.seq})
	if len(b.messages) > b.maxMessages {
		drop := len(b.messages) - b.maxMessages
		b.messages = append(b.messages[:0], b.messages[drop:]...)
	}
	b.mu.Unlock()
}

// Sort submits a sort operation (order mailbox by subject, then
// sender, then sequence) and returns its future.
func (s *Server) Sort(user int) *icilk.Future { return s.Do(1, user, 0) }

func (s *Server) doSort(t *icilk.Task, user int) {
	b := s.boxes[user%len(s.boxes)]
	b.mu.Lock()
	msgs := make([]Message, len(b.messages))
	copy(msgs, b.messages)
	b.mu.Unlock()
	var lastSeq int64
	if len(msgs) > 0 {
		lastSeq = msgs[len(msgs)-1].Seq
	}
	t.Yield() // scheduling point between snapshot and the sort burst
	slices.SortFunc(msgs, func(a, b Message) int {
		if c := strings.Compare(a.Subject, b.Subject); c != 0 {
			return c
		}
		if c := strings.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	b.mu.Lock()
	// Install only if the mailbox didn't change meanwhile (cheap
	// check: same length and the newest message is still the one we
	// snapshotted).
	if len(b.messages) == len(msgs) && (len(msgs) == 0 || b.messages[len(msgs)-1].Seq == lastSeq) {
		copy(b.messages, msgs)
	}
	b.mu.Unlock()
}

// render flattens a message list to the wire form used by compress
// and print.
func render(msgs []Message) []byte {
	var buf bytes.Buffer
	for _, m := range msgs {
		fmt.Fprintf(&buf, "From: %s\r\nSubject: %s\r\nSeq: %d\r\n\r\n", m.From, m.Subject, m.Seq)
		buf.Write(m.Body)
		buf.WriteString("\r\n.\r\n")
	}
	return buf.Bytes()
}

// Compress submits a compress operation and returns its future.
func (s *Server) Compress(user int) *icilk.Future { return s.Do(3, user, 0) }

func (s *Server) doCompress(t *icilk.Task, user int) int {
	b := s.boxes[user%len(s.boxes)]
	b.mu.Lock()
	msgs := make([]Message, len(b.messages))
	copy(msgs, b.messages)
	b.mu.Unlock()
	raw := render(msgs)

	// Chunked DEFLATE with a scheduling point between chunks, so the
	// long CPU burst remains promptly abandonable — the role compiled
	// Cilk spawn sites play in the original.
	var out bytes.Buffer
	fw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		panic(err)
	}
	const chunk = 4096
	for off := 0; off < len(raw); off += chunk {
		end := off + chunk
		if end > len(raw) {
			end = len(raw)
		}
		if _, err := fw.Write(raw[off:end]); err != nil {
			panic(err)
		}
		t.Yield()
	}
	if err := fw.Close(); err != nil {
		panic(err)
	}
	snap := out.Bytes()
	b.mu.Lock()
	b.snapshot = snap
	b.mu.Unlock()
	return len(snap)
}

// Print submits a print operation (decompress the latest snapshot and
// render it); the future resolves to the rendered length.
func (s *Server) Print(user int) *icilk.Future { return s.Do(2, user, 0) }

func (s *Server) doPrint(t *icilk.Task, user int) int {
	b := s.boxes[user%len(s.boxes)]
	b.mu.Lock()
	snap := b.snapshot
	b.mu.Unlock()
	if snap == nil {
		// Nothing compressed yet: compress first (keeps the op
		// meaningful early in a run).
		s.doCompress(t, user)
		b.mu.Lock()
		snap = b.snapshot
		b.mu.Unlock()
	}
	fr := flate.NewReader(bytes.NewReader(snap))
	defer fr.Close()
	total := 0
	var chunk [4096]byte
	for {
		n, err := fr.Read(chunk[:])
		total += n
		t.Yield()
		if err == io.EOF {
			break
		}
		if err != nil {
			panic(err)
		}
	}
	return total
}

// SearchResult is one full-text search hit.
type SearchResult struct {
	User    int
	Seq     int64
	From    string
	Subject string
}

// Search submits a full-text search over every mailbox — the one
// genuinely data-parallel operation in this otherwise
// sequential-burst workload. It runs at LevelSearch (batch priority,
// with compress/print) as a parallel tree reduction over the mailbox
// array: one leaf per mailbox, combines in user order, so the result
// list is deterministic — sorted by user, then by mailbox position.
// The future resolves to []SearchResult.
func (s *Server) Search(query string) *icilk.Future {
	return s.rt.Submit(LevelSearch, func(t *icilk.Task) any {
		return s.doSearch(t, query)
	})
}

func (s *Server) doSearch(t *icilk.Task, query string) []SearchResult {
	q := []byte(query)
	return icilk.Reduce(t, 0, len(s.boxes), 1, nil,
		func(user int) []SearchResult {
			return s.searchBox(user, query, q)
		},
		func(a, b []SearchResult) []SearchResult {
			if len(a) == 0 {
				return b
			}
			if len(b) == 0 {
				return a
			}
			// Full-slice expression: a leaf's slice may be shared with an
			// already-published combine result, so never append in place.
			return append(a[:len(a):len(a)], b...)
		})
}

// searchBox scans one mailbox for query hits: snapshot under the
// lock, match outside it (subject, sender, body).
func (s *Server) searchBox(user int, query string, q []byte) []SearchResult {
	b := s.boxes[user]
	b.mu.Lock()
	msgs := make([]Message, len(b.messages))
	copy(msgs, b.messages)
	b.mu.Unlock()
	var hits []SearchResult
	for i := range msgs {
		m := &msgs[i]
		if strings.Contains(m.Subject, query) || strings.Contains(m.From, query) || bytes.Contains(m.Body, q) {
			hits = append(hits, SearchResult{User: user, Seq: m.Seq, From: m.From, Subject: m.Subject})
		}
	}
	return hits
}

// OpNames lists the operation classes in priority order, as the
// paper's Figure 5 labels them.
var OpNames = []string{"send", "sort", "print", "comp"}

// Request describes an operation by class index (0=send, 1=sort,
// 2=print, 3=comp) for user, as the workload driver issues it: its
// priority level and its task body. Do submits it as is; a caller
// gating the server passes the two to its admission controller's
// Submit.
func (s *Server) Request(op int, user int, seq int64) (level int, fn func(*icilk.Task) any) {
	switch op {
	case 0:
		subject := fmt.Sprintf("msg-%d", seq%97)
		return s.send(user, fmt.Sprintf("user%d@example.com", seq%31), subject, makeBody(int(seq)))
	case 1:
		return LevelSort, func(t *icilk.Task) any {
			s.doSort(t, user)
			return nil
		}
	case 2:
		return LevelPrint, func(t *icilk.Task) any {
			return s.doPrint(t, user)
		}
	default:
		return LevelCompress, func(t *icilk.Task) any {
			return s.doCompress(t, user)
		}
	}
}

// Do submits the operation Request describes and returns its future.
func (s *Server) Do(op int, user int, seq int64) *icilk.Future {
	return s.rt.Submit(s.Request(op, user, seq))
}

// makeBody builds a deterministic, mildly compressible body.
func makeBody(seed int) []byte {
	b := make([]byte, 1024)
	for i := range b {
		b[i] = byte('a' + (seed+i/7)%26)
	}
	return b
}
