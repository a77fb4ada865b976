package net

import (
	"errors"
	"fmt"
	stdnet "net"
	"os"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// tcpEcho answers probes and client txns.
type tcpEcho struct{}

func (tcpEcho) Init(rt Runtime) {}
func (tcpEcho) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	switch msg := m.(type) {
	case wire.Probe:
		rt.Send(from, wire.ProbeAck{From: rt.ID(), Seq: msg.Seq})
	case wire.ClientTxn:
		rt.Send(model.NoProc, wire.ClientResult{Tag: msg.Tag, Committed: true,
			Reads: []wire.ObjVal{{Obj: "x", Val: 1}}})
	}
}
func (tcpEcho) OnTimer(rt Runtime, key any) {}

// tcpPinger probes node 2 until an ack arrives.
type tcpPinger struct{ acked chan struct{} }

func (p *tcpPinger) Init(rt Runtime) { rt.SetTimer(10*time.Millisecond, "probe") }
func (p *tcpPinger) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if _, ok := m.(wire.ProbeAck); ok {
		select {
		case <-p.acked:
		default:
			close(p.acked)
		}
	}
}
func (p *tcpPinger) OnTimer(rt Runtime, key any) {
	select {
	case <-p.acked:
		return
	default:
	}
	rt.Send(2, wire.Probe{From: rt.ID(), Seq: 1})
	rt.SetTimer(10*time.Millisecond, "probe")
}

func TestTCPNodePeerTraffic(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	p := &tcpPinger{acked: make(chan struct{})}
	n1 := NewTCPNode(1, addrs, p)
	n2 := NewTCPNode(2, addrs, tcpEcho{})
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	defer n2.Stop()
	if err := n1.Run(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()
	select {
	case <-p.acked:
	case <-time.After(10 * time.Second):
		t.Fatal("no ack over TCP")
	}
	if n1.Addr() == "" {
		t.Fatal("Addr empty after Run")
	}
}

func TestTCPClientSubmit(t *testing.T) {
	ports := freePorts(t, 1)
	addrs := map[model.ProcID]string{1: ports[0]}
	n := NewTCPNode(1, addrs, tcpEcho{})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	res, err := SubmitTCP(ports[0], wire.ClientTxn{Tag: 9, Ops: wire.IncrementOps("x", 1)}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tag != 9 || !res.Committed || len(res.Reads) != 1 {
		t.Fatalf("res = %+v", res)
	}
}

// TestTCPNonBinaryFrameDropsConnection sends a node a well-framed
// payload without the binary codec's flag bit — what a peer on the
// retired gob codec would write. The node must drop that connection (an
// omission), not deliver a misread message, and keep serving others.
func TestTCPNonBinaryFrameDropsConnection(t *testing.T) {
	ports := freePorts(t, 1)
	addrs := map[model.ProcID]string{1: ports[0]}
	n := NewTCPNode(1, addrs, tcpEcho{})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	frame, err := wire.NewBinaryEncoder().EncodeFrame(&wire.Envelope{From: model.NoProc, To: model.NoProc,
		Msg: wire.ClientTxn{Tag: 5, Ops: wire.IncrementOps("x", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	frame[wire.FrameHeaderLen] &^= 0x80
	conn, err := stdnet.DialTimeout("tcp", ports[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The node read the whole frame, so its close arrives as EOF (a reset
	// would also do); a timeout means the connection was kept.
	if k, err := conn.Read(make([]byte, 64)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after unflagged frame = %d bytes, %v; want the node to close the connection", k, err)
	}

	res, err := SubmitTCP(ports[0], wire.ClientTxn{Tag: 6, Ops: wire.IncrementOps("x", 1)}, 5*time.Second)
	if err != nil || !res.Committed || res.Tag != 6 {
		t.Fatalf("submit after dropped connection: res=%+v err=%v", res, err)
	}
}

// tcpCounter counts probes and reports when the expected total arrived.
type tcpCounter struct {
	want int
	got  int
	done chan struct{}
}

func (c *tcpCounter) Init(rt Runtime) {}
func (c *tcpCounter) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if _, ok := m.(wire.Probe); ok {
		c.got++
		if c.got == c.want {
			close(c.done)
		}
	}
}
func (c *tcpCounter) OnTimer(rt Runtime, key any) {}

// TestTCPBurstDelivery floods one peer with a burst far larger than
// maxWriteBatch. The messages queue while the connection comes up and
// are then flushed in vectored batches; with the connection healthy,
// every single one must arrive (batching must not drop or reorder into
// omissions).
func TestTCPBurstDelivery(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	const burst = 500
	ctr := &tcpCounter{want: burst, done: make(chan struct{})}
	n1 := NewTCPNode(1, addrs, tcpEcho{})
	n2 := NewTCPNode(2, addrs, ctr)
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	defer n2.Stop()
	if err := n1.Run(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()
	for i := 0; i < burst; i++ {
		n1.Send(2, wire.Probe{From: 1, Seq: uint64(i + 1)})
	}
	select {
	case <-ctr.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("burst incomplete: got %d of %d", ctr.got, burst)
	}
}

func TestTCPSendToDeadPeerIsOmission(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	n := NewTCPNode(1, addrs, tcpEcho{})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	// Peer 2 never started: Send must not block or crash.
	done := make(chan struct{})
	go func() {
		n.Send(2, wire.Probe{From: 1, Seq: 1})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a dead peer")
	}
}

func TestTCPProcsSorted(t *testing.T) {
	addrs := map[model.ProcID]string{3: "c", 1: "a", 2: "b"}
	n := NewTCPNode(1, addrs, tcpEcho{})
	got := n.Procs()
	want := []model.ProcID{1, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Procs = %v", got)
	}
	if n.Distance(1) != 0 || n.Distance(2) == 0 {
		t.Fatal("Distance: self must be 0, peers non-zero")
	}
}

func TestTCPMissingOwnAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTCPNode(1, map[model.ProcID]string{2: "x"}, tcpEcho{})
}
