// Iofutures shows the I/O-future programming model that made the
// paper's Memcached port tractable: a tiny line-oriented key-value
// server whose per-connection handler is straight-line synchronous
// code — no event loop, no callback state machine — while the
// runtime multiplexes all connections over two workers.
//
//	go run ./examples/iofutures
package main

import (
	"fmt"
	"strings"
	"sync"

	"icilk"
	"icilk/internal/netsim"
)

func main() {
	rt, err := icilk.New(icilk.Config{Workers: 2, Levels: 1})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	ln := netsim.NewListener()

	// The whole server: accept, then one future routine per
	// connection. Reads suspend on I/O futures, so a handler blocked
	// on a slow client costs nothing.
	var store sync.Map
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			rt.Submit(0, func(t *icilk.Task) any {
				defer conn.Close()
				lr := rt.NewLineReader(conn)
				for {
					line, err := lr.ReadLineBytes(t)
					if err != nil {
						return nil // client hung up
					}
					// line is a view into the reader's buffer; the
					// string conversion copies it before the next read.
					fields := strings.Fields(string(line))
					switch {
					case len(fields) == 3 && fields[0] == "put":
						store.Store(fields[1], fields[2])
						conn.WriteString("ok\n")
					case len(fields) == 2 && fields[0] == "get":
						if v, ok := store.Load(fields[1]); ok {
							conn.WriteString(v.(string) + "\n")
						} else {
							conn.WriteString("(nil)\n")
						}
					default:
						conn.WriteString("err: use 'put k v' or 'get k'\n")
					}
				}
			})
		}
	}()

	// Three concurrent clients, interleaving requests.
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Dial()
			if err != nil {
				panic(err)
			}
			defer conn.Close()
			send := func(req string) string {
				conn.WriteString(req + "\n")
				var buf [128]byte
				n, err := conn.Read(buf[:])
				if err != nil {
					panic(err)
				}
				return strings.TrimSpace(string(buf[:n]))
			}
			key := fmt.Sprintf("key%d", c)
			fmt.Printf("client %d: put -> %s\n", c, send("put "+key+" value"+key))
			fmt.Printf("client %d: get -> %s\n", c, send("get "+key))
			fmt.Printf("client %d: missing -> %s\n", c, send("get nope"))
		}()
	}
	wg.Wait()
	ln.Close()
}
