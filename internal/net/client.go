package net

import (
	"errors"
	"fmt"
	stdnet "net"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// ErrClientClosed is returned by Client.Submit after Close.
var ErrClientClosed = errors.New("net: client closed")

// Client is a persistent client connection to one node: it dials lazily,
// multiplexes concurrent ClientTxn submissions over the single
// connection (results are matched back by tag, which the server supports
// natively), and re-dials transparently on the next Submit after a
// connection loss. It replaces SubmitTCP's dial-per-request for callers
// that talk to the same node repeatedly — the gateway's pool in
// particular — paying the dial once per connection instead of once per
// transaction.
//
// Writes are combined: Submit only encodes its frame (under the lock)
// and enqueues it; a per-connection flusher drains everything queued and
// writes the batch with one vectored write (net.Buffers / writev).
// Concurrent submitters therefore share syscalls instead of serializing
// on conn.Write. A write failure surfaces as a connection teardown,
// which fails every in-flight Submit — the same omission-failure
// contract as before (a submission whose result was lost may or may not
// have executed; callers retry under the same at-least-once rules as
// SubmitTCPRetry).
type Client struct {
	addr        string
	dialTimeout time.Duration

	mu      sync.Mutex
	conn    stdnet.Conn
	enc     *wire.BinaryEncoder
	wq      stdnet.Buffers // frames awaiting flush
	wheld   []*frameBuf    // pooled backing buffers for wq
	wsig    chan struct{}  // flush doorbell; closed on teardown
	pending map[uint64]chan wire.ClientResult
	closed  bool
}

// NewClient returns an unconnected client for the node at addr. The
// first Submit dials. dialTimeout <= 0 selects 2s.
func NewClient(addr string, dialTimeout time.Duration) *Client {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	return &Client{addr: addr, dialTimeout: dialTimeout, enc: wire.NewBinaryEncoder()}
}

// Addr returns the node address this client dials.
func (c *Client) Addr() string { return c.addr }

// Submit sends one transaction and waits up to timeout for its result.
// Concurrent submissions share the connection; each caller's tag must be
// unique among the in-flight set.
func (c *Client) Submit(t wire.ClientTxn, timeout time.Duration) (wire.ClientResult, error) {
	return c.SubmitCtx(t, model.TraceCtx{}, timeout)
}

// SubmitCtx is Submit with a trace context attached to the outbound
// frame, so the receiving node's transaction handling is parented under
// the caller's span. A zero context adds no bytes to the frame.
func (c *Client) SubmitCtx(t wire.ClientTxn, ctx model.TraceCtx, timeout time.Duration) (wire.ClientResult, error) {
	ch := make(chan wire.ClientResult, 1)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return wire.ClientResult{}, ErrClientClosed
	}
	if c.conn == nil {
		conn, err := stdnet.DialTimeout("tcp", c.addr, c.dialTimeout)
		if err != nil {
			c.mu.Unlock()
			return wire.ClientResult{}, err
		}
		c.conn = conn
		c.wsig = make(chan struct{}, 1)
		c.pending = make(map[uint64]chan wire.ClientResult)
		go c.readLoop(conn)
		go c.writeLoop(conn, c.wsig)
	}
	if _, dup := c.pending[t.Tag]; dup {
		c.mu.Unlock()
		return wire.ClientResult{}, fmt.Errorf("net: client tag %d already in flight", t.Tag)
	}
	fb := frameScratch.Get().(*frameBuf)
	b, err := c.enc.AppendFrame(fb.b[:0], &wire.Envelope{From: model.NoProc, To: model.NoProc, Msg: t, Ctx: ctx})
	if err != nil {
		frameScratch.Put(fb)
		c.mu.Unlock()
		return wire.ClientResult{}, err
	}
	fb.b = b
	c.pending[t.Tag] = ch
	c.wq = append(c.wq, b)
	c.wheld = append(c.wheld, fb)
	// Ring the flusher's doorbell (it drains everything queued per wake,
	// so one pending signal covers any number of enqueues).
	select {
	case c.wsig <- struct{}{}:
	default:
	}
	c.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res, ok := <-ch:
		if !ok {
			return wire.ClientResult{}, fmt.Errorf("net: connection to %s lost awaiting result", c.addr)
		}
		return res, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, t.Tag)
		c.mu.Unlock()
		return wire.ClientResult{}, fmt.Errorf("net: submit to %s timed out after %v", c.addr, timeout)
	}
}

// writeLoop flushes queued frames in batches: each doorbell ring drains
// the whole queue into one vectored write. It exits when the doorbell
// channel is closed (teardown). A stalled flush is bounded by the dial
// timeout and tears the connection down like any other write failure.
func (c *Client) writeLoop(conn stdnet.Conn, sig chan struct{}) {
	for range sig {
		c.mu.Lock()
		vec, held := c.wq, c.wheld
		c.wq, c.wheld = nil, nil
		c.mu.Unlock()
		if len(vec) == 0 {
			continue
		}
		conn.SetWriteDeadline(time.Now().Add(c.dialTimeout)) //nolint:errcheck
		_, err := vec.WriteTo(conn)
		for _, fb := range held {
			frameScratch.Put(fb)
		}
		if err != nil {
			c.mu.Lock()
			if c.conn == conn {
				c.teardownLocked()
			}
			c.mu.Unlock()
			// teardown closed sig; keep ranging to drain it and exit.
		}
	}
}

// readLoop owns the connection's decoder, dispatching each result to the
// Submit waiting on its tag. Any read error tears the connection down,
// failing all in-flight submissions; the next Submit re-dials.
func (c *Client) readLoop(conn stdnet.Conn) {
	dec := wire.NewBinaryDecoder()
	fb := frameScratch.Get().(*frameBuf)
	defer frameScratch.Put(fb)
	for {
		frame, err := readFrame(conn, fb)
		if err != nil {
			break
		}
		env, err := dec.Decode(frame)
		if err != nil {
			break
		}
		res, ok := env.Msg.(wire.ClientResult)
		if !ok {
			continue
		}
		c.mu.Lock()
		ch := c.pending[res.Tag]
		delete(c.pending, res.Tag)
		c.mu.Unlock()
		if ch != nil {
			ch <- res
		}
	}
	c.mu.Lock()
	if c.conn == conn {
		c.teardownLocked()
	} else {
		conn.Close()
	}
	c.mu.Unlock()
}

// teardownLocked closes the live connection, stops its flusher, recycles
// any unflushed frames, and fails every in-flight submission. Callers
// hold c.mu.
func (c *Client) teardownLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	if c.wsig != nil {
		close(c.wsig)
		c.wsig = nil
	}
	for _, fb := range c.wheld {
		frameScratch.Put(fb)
	}
	c.wq, c.wheld = nil, nil
	for tag, ch := range c.pending {
		close(ch)
		delete(c.pending, tag)
	}
}

// Close tears the connection down; subsequent Submits fail.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.teardownLocked()
	c.mu.Unlock()
}
