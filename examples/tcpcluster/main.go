// TCP cluster: four nodes communicating over real loopback TCP sockets
// (binary-framed), taking turns on the distributed mutex. The same code
// works across machines by listing real peer addresses.
//
//	go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"repro"
)

func main() {
	// Reserve four loopback addresses. In a real deployment this table is
	// the static cluster membership, one address per node position.
	addrs := make([]string, 4)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}

	nodes := make([]*opencubemx.TCPNode, len(addrs))
	for i := range addrs {
		node, err := opencubemx.NewTCPNode(i, addrs)
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
		fmt.Printf("node %d up at %s\n", i, node.Addr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for round := 0; round < 3; round++ {
		for i, node := range nodes {
			m := node.Mutex()
			if err := m.Lock(ctx); err != nil {
				log.Fatalf("node %d: %v", i, err)
			}
			fmt.Printf("round %d: node %d holds the cluster-wide lock\n", round, i)
			if err := m.Unlock(); err != nil {
				log.Fatalf("node %d: %v", i, err)
			}
		}
	}
	fmt.Println("done: 12 exclusive sections over real TCP")
}
