// Cluster demo: the same protocol code deployed over real TCP. Three
// processors run in this process, each with its own listener, talking
// binary-encoded envelopes; a client submits transactions over the wire —
// exactly what cmd/vpnode and cmd/vpctl do across machines.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	stdnet "net"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/wire"
)

func main() {
	// Pick three free ports.
	addrs := map[model.ProcID]string{}
	for id := model.ProcID(1); id <= 3; id++ {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs[id] = l.Addr().String()
		l.Close()
	}

	cat := model.FullyReplicated(3, "x")
	cfg := core.Config{Config: node.Config{Delta: 25 * time.Millisecond, LogCap: 256}}
	var tcpNodes []*net.TCPNode
	for id := model.ProcID(1); id <= 3; id++ {
		nd := core.New(id, cfg, cat, nil)
		nd.Observer = func(ev any) {
			if j, ok := ev.(core.JoinEvent); ok {
				fmt.Printf("  %v joined %v view=%v\n", j.Proc, j.VP, j.View)
			}
		}
		tn := net.NewTCPNode(id, addrs, nd)
		if err := tn.Run(); err != nil {
			log.Fatal(err)
		}
		defer tn.Stop()
		tcpNodes = append(tcpNodes, tn)
		fmt.Printf("node %v listening on %s\n", id, addrs[id])
	}

	// Let probes discover each other and form the first partition
	// (π + 8δ with π = 20δ = 500ms here).
	time.Sleep(time.Second)

	submit := func(to model.ProcID, tag uint64, ops []wire.Op, label string) {
		res, err := net.SubmitTCP(addrs[to], wire.ClientTxn{Tag: tag, Ops: ops}, 5*time.Second)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		status := "aborted: " + res.Reason
		if res.Committed {
			status = "committed"
		}
		fmt.Printf("%s via node %v -> %s", label, to, status)
		for _, rv := range res.Reads {
			fmt.Printf("  %s=%d", rv.Obj, rv.Val)
		}
		fmt.Println()
	}

	submit(1, 1, wire.IncrementOps("x", 7), "increment x by 7")
	submit(2, 2, []wire.Op{wire.ReadOp("x")}, "read x")
	submit(3, 3, wire.IncrementOps("x", -2), "increment x by -2")
	submit(1, 4, []wire.Op{wire.ReadOp("x")}, "read x")
	fmt.Println("done; all traffic went over real TCP sockets")
}
