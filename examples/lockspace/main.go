// Lockspace: a four-node in-process keyed lock service. Every account
// name is its own distributed mutex — transfers on different accounts
// proceed in parallel, transfers touching the same account serialize —
// and all of them share one runtime: one goroutine and one transport
// endpoint per node, instances created lazily on first touch.
//
//	go run ./examples/lockspace
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"repro"
)

func main() {
	cluster, err := opencubemx.NewCluster(4)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	accounts := map[string]int{"alice": 100, "bob": 100, "carol": 100}
	var mu sync.Mutex // guards the map structure; balances are guarded per key

	var wg sync.WaitGroup
	for i := 0; i < cluster.N(); i++ {
		node, err := cluster.Lockspace(i)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			names := []string{"alice", "bob", "carol"}
			for k := 0; k < 9; k++ {
				name := names[(id+k)%len(names)]
				// Lock this account's own distributed mutex; other
				// accounts stay lockable in parallel. The returned fence
				// identifies this grant; presenting it to Unlock (instead
				// of 0, "whatever I hold") catches lease expiry races.
				fence, err := node.Lock(context.Background(), name)
				if err != nil {
					log.Printf("node %d: %v", id, err)
					return
				}
				mu.Lock()
				accounts[name] += 1
				mu.Unlock()
				if err := node.Unlock(name, fence); err != nil {
					log.Printf("node %d: %v", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	total := 0
	for _, name := range []string{"alice", "bob", "carol"} {
		fmt.Printf("%-6s %d\n", name, accounts[name])
		total += accounts[name]
	}
	fmt.Printf("total  %d (want %d)\n", total, 300+4*9)
	if total != 300+4*9 {
		log.Fatal("lost updates: per-key mutual exclusion violated")
	}
}
