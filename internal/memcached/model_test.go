package memcached

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// modelEntry is the reference model's item.
type modelEntry struct {
	value string
	flags uint32
}

// modelValue picks an op's payload. The store overwrites values in
// place and recycles buffers by size class, so the lengths sit on both
// sides of the 16-, 20- and 32-byte class edges (a shrink must not
// leave the longer value's tail readable, an append onto a shrunk
// value must not resurrect it) and the numbers grow a digit under
// "incr 1" — the last one across a class edge.
func modelValue(sel uint16) string {
	switch sel %= 12; sel {
	case 0:
		return "9"
	case 1:
		return "99"
	case 2:
		return "9999999999999999"
	default:
		n := []int{1, 2, 15, 16, 17, 20, 21, 33, 100}[sel-3]
		return strings.Repeat(string(rune('a'+sel)), n)
	}
}

// TestQuickStoreMatchesModel drives random command sequences through
// the protocol layer — either executor, picked per command — and an
// in-memory reference model in lockstep, comparing every reply. This
// is the property-based check that the store+protocol implementation
// agrees with the memcached text protocol semantics for the
// non-temporal commands.
func TestQuickStoreMatchesModel(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	prop := func(ops []uint16) bool {
		s := NewStore(StoreConfig{Shards: 2})
		model := make(map[string]modelEntry)
		for _, op := range ops {
			// Disjoint bit fields: command, key, executor, payload.
			key := keys[int(op>>3)%len(keys)]
			exec := exec
			if op>>5&1 == 1 {
				exec = execB
			}
			val := modelValue(op >> 6)
			switch op % 8 {
			case 1: // set; on the in-place path, with a length one short
				if op>>5&1 == 1 {
					got := execB(t, s, fmt.Sprintf("set %s 0 0 %d", key, len(val)-1), val)
					if got != replyBadDataChnk {
						return false
					}
					break // nothing stored: the model keeps its entry
				}
				fallthrough
			case 0: // set
				got := exec(t, s, fmt.Sprintf("set %s %d 0 %d", key, op%5, len(val)), val)
				if got != "STORED\r\n" {
					return false
				}
				model[key] = modelEntry{val, uint32(op % 5)}
			case 2: // add
				got := exec(t, s, fmt.Sprintf("add %s 0 0 %d", key, len(val)), val)
				_, exists := model[key]
				if exists && got != "NOT_STORED\r\n" {
					return false
				}
				if !exists {
					if got != "STORED\r\n" {
						return false
					}
					model[key] = modelEntry{val, 0}
				}
			case 3: // replace
				got := exec(t, s, fmt.Sprintf("replace %s 0 0 %d", key, len(val)), val)
				_, exists := model[key]
				if !exists && got != "NOT_STORED\r\n" {
					return false
				}
				if exists {
					if got != "STORED\r\n" {
						return false
					}
					model[key] = modelEntry{val, 0}
				}
			case 4: // get
				got := exec(t, s, "get "+key, "")
				want, exists := model[key]
				if !exists {
					if got != "END\r\n" {
						return false
					}
				} else {
					header := fmt.Sprintf("VALUE %s %d %d\r\n", key, want.flags, len(want.value))
					if got != header+want.value+"\r\nEND\r\n" {
						return false
					}
				}
			case 5: // delete
				got := exec(t, s, "delete "+key, "")
				_, exists := model[key]
				if exists && got != "DELETED\r\n" {
					return false
				}
				if !exists && got != "NOT_FOUND\r\n" {
					return false
				}
				delete(model, key)
			case 6: // append
				got := exec(t, s, fmt.Sprintf("append %s 0 0 %d", key, len(val)), val)
				want, exists := model[key]
				if !exists && got != "NOT_STORED\r\n" {
					return false
				}
				if exists {
					if got != "STORED\r\n" {
						return false
					}
					model[key] = modelEntry{want.value + val, want.flags}
				}
			case 7: // incr (only meaningful when the value is numeric)
				got := exec(t, s, "incr "+key+" 1", "")
				want, exists := model[key]
				switch {
				case !exists:
					if got != "NOT_FOUND\r\n" {
						return false
					}
				default:
					if n, err := strconv.ParseUint(want.value, 10, 64); err == nil {
						nv := strconv.FormatUint(n+1, 10)
						if got != nv+"\r\n" {
							return false
						}
						model[key] = modelEntry{nv, want.flags}
					} else if !strings.HasPrefix(got, "CLIENT_ERROR") {
						return false
					}
				}
			}
		}
		// Final consistency: item count matches the model.
		return s.Len() == len(model)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOverwriteInPlaceLeavesNoStaleBytes walks the reuse edges one by
// one on the serving path: every reply is the whole new value and
// nothing of an older, longer one.
func TestOverwriteInPlaceLeavesNoStaleBytes(t *testing.T) {
	s := NewStore(StoreConfig{Shards: 1})
	long, short := strings.Repeat("L", 60), strings.Repeat("s", 50) // both in the 64-byte class
	tiny, big := "t", strings.Repeat("B", 3000)
	steps := []struct{ line, data, want string }{
		{"set k 1 0 60", long, "STORED\r\n"},
		{"set k 2 0 50", short, "STORED\r\n"}, // shrink inside the class
		{"get k", "", "VALUE k 2 50\r\n" + short + "\r\nEND\r\n"},
		{"set k 3 0 60", long, "STORED\r\n"}, // regrow inside it
		{"get k", "", "VALUE k 3 60\r\n" + long + "\r\nEND\r\n"},
		{"set k 4 0 1", tiny, "STORED\r\n"},   // shrink across class edges
		{"append k 0 0 1", "+", "STORED\r\n"}, // append onto the shrunk value
		{"get k", "", "VALUE k 4 2\r\nt+\r\nEND\r\n"},
		{"prepend k 0 0 3000", big, "STORED\r\n"}, // grow across class edges, old value moves up
		{"get k", "", "VALUE k 4 3002\r\n" + big + "t+\r\nEND\r\n"},
		{"delete k", "", "DELETED\r\n"},           // lists the 3-KiB item ...
		{"set j 5 0 2999", big[1:], "STORED\r\n"}, // ... which the next insert of its class takes
		{"get j k", "", "VALUE j 5 2999\r\n" + big[1:] + "\r\nEND\r\n"},
		{"set n 0 0 1", "9", "STORED\r\n"},
		{"incr n 1", "", "10\r\n"},
		{"get n", "", "VALUE n 0 2\r\n10\r\nEND\r\n"},
		{"set n 0 0 2", "99", "STORED\r\n"},
		{"incr n 1", "", "100\r\n"},
		{"decr n 91", "", "9\r\n"},
		{"get n", "", "VALUE n 0 1\r\n9\r\nEND\r\n"},
		{"set n 0 0 16", "9999999999999999", "STORED\r\n"},
		{"incr n 1", "", "10000000000000000\r\n"}, // 17 digits: out of the 16-byte class
		{"get n", "", "VALUE n 0 17\r\n10000000000000000\r\nEND\r\n"},
	}
	for i, st := range steps {
		if got := execB(t, s, st.line, st.data); got != st.want {
			t.Fatalf("step %d %q: got %q, want %q", i, st.line, got, st.want)
		}
	}
	if want := int64(2999 + 17); s.Bytes() != want {
		t.Errorf("bytes = %d, want %d", s.Bytes(), want)
	}
}
