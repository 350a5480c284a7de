package cluster

// node.go is the per-shard RPC server: stpqd in -cluster-node mode wraps
// its serve.Service (worker pool, admission control, result cache) and its
// DB in a Node and serves the cluster protocol over TCP. One goroutine per
// connection, strict request/response (no pipelining): the protocol's
// concurrency comes from the coordinator opening one connection per
// in-flight call, and the node's from the serve worker pool behind Do.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stpq"
	"stpq/internal/serve"
)

// NodeConfig configures a cluster node server.
type NodeConfig struct {
	// NodeID is the node's cell id in the partition map.
	NodeID int
	// Service executes queries (its worker pool is the node's concurrency
	// limit; its cache and request-ID handling apply unchanged).
	Service *serve.Service
	// DB answers bound probes (through the same Prepare the Service runs
	// queries through), WAL segment fetches and health.
	DB *stpq.DB
	// QueryDelay, when positive, sleeps before executing every query — the
	// fault-injection hook the hedging tests use.
	QueryDelay time.Duration
	// Logf, when non-nil, receives connection-level error lines.
	Logf func(format string, args ...any)
}

// Node serves the cluster RPC protocol.
type Node struct {
	cfg NodeConfig
	lis net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	served atomic.Int64
}

// NewNode wraps a service + DB pair. Call Start to begin serving.
func NewNode(cfg NodeConfig) *Node {
	return &Node{cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves connections until
// Close. It returns the bound address.
func (n *Node) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d listen: %w", n.cfg.NodeID, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		lis.Close()
		return nil, errors.New("cluster: node already closed")
	}
	n.lis = lis
	n.mu.Unlock()
	n.wg.Add(1)
	go n.acceptLoop(lis)
	return lis.Addr(), nil
}

// Addr returns the listener address (nil before Start).
func (n *Node) Addr() net.Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lis == nil {
		return nil
	}
	return n.lis.Addr()
}

// Served returns the number of RPC requests handled (tests).
func (n *Node) Served() int64 { return n.served.Load() }

// Close stops the listener, closes every live connection and waits for
// the handlers to drain. Safe to call twice.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	if n.lis != nil {
		n.lis.Close()
	}
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) acceptLoop(lis net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return // Close, or a fatal listener error
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.serveConn(conn)
	}
}

func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
	}()
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return // EOF, peer reset, or Close
		}
		n.served.Add(1)
		replyType, reply := n.handle(typ, payload)
		if err := writeFrame(conn, replyType, reply); err != nil {
			n.logf("cluster: node %d: write reply: %v", n.cfg.NodeID, err)
			return
		}
	}
}

// handle dispatches one request and returns the reply frame.
func (n *Node) handle(typ byte, payload []byte) (byte, []byte) {
	switch typ {
	case msgQuery:
		return n.handleQuery(payload)
	case msgBound:
		return n.handleBound(payload)
	case msgSegment:
		return n.handleSegment(payload)
	case msgHealth:
		return n.handleHealth()
	case msgInfo:
		return n.handleInfo()
	default:
		return msgError, encodeError(errInvalid, fmt.Sprintf("unknown message type 0x%02x", typ))
	}
}

// errReply maps execution errors onto protocol error codes.
func errReply(err error) (byte, []byte) {
	code := errInternal
	switch {
	case errors.Is(err, stpq.ErrInvalidQuery), errors.Is(err, ErrBadFrame):
		code = errInvalid
	case errors.Is(err, serve.ErrOverloaded):
		code = errOverloaded
	case errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrDeadline),
		errors.Is(err, stpq.ErrNotBuilt), errors.Is(err, stpq.ErrNoWAL):
		code = errUnavailable
	}
	return msgError, encodeError(code, err.Error())
}

func (n *Node) handleQuery(payload []byte) (byte, []byte) {
	wq, err := decodeQuery(payload)
	if err != nil {
		return errReply(err)
	}
	if n.cfg.QueryDelay > 0 {
		time.Sleep(n.cfg.QueryDelay)
	}
	resp, err := n.cfg.Service.Do(context.Background(), toQuery(wq))
	if err != nil {
		return errReply(err)
	}
	reply := QueryReply{
		Results:    resp.Results,
		Stats:      resp.Stats,
		Generation: resp.Generation,
		Cached:     resp.Cached,
	}
	if wq.Trace && resp.Stats.Trace != nil {
		if data, err := json.Marshal(resp.Stats.Trace); err == nil {
			reply.TraceJSON = data
		}
	}
	return msgQuery | replyBit, encodeQueryReply(reply)
}

func (n *Node) handleBound(payload []byte) (byte, []byte) {
	wq, err := decodeQuery(payload)
	if err != nil {
		return errReply(err)
	}
	snap, err := n.cfg.DB.Snapshot()
	if err != nil {
		return errReply(err)
	}
	b, err := snap.UpperBound(toQuery(wq))
	if err != nil {
		return errReply(err)
	}
	return msgBound | replyBit, encodeBoundReply(BoundReply{
		Bound:      b,
		AppliedSeq: n.cfg.DB.WALSeq(),
		Generation: snap.Generation(),
	})
}

func (n *Node) handleSegment(payload []byte) (byte, []byte) {
	req, err := decodeSegmentRequest(payload)
	if err != nil {
		return errReply(err)
	}
	first, data, err := n.cfg.DB.WALSealedSegment(req.From)
	if err != nil {
		return errReply(err)
	}
	return msgSegment | replyBit, encodeSegmentReply(SegmentReply{FirstSeq: first, Data: data})
}

func (n *Node) handleHealth() (byte, []byte) {
	snap, err := n.cfg.DB.Snapshot()
	if err != nil {
		return errReply(err)
	}
	return msgHealth | replyBit, encodeHealthReply(HealthReply{
		NodeID:     n.cfg.NodeID,
		AppliedSeq: n.cfg.DB.WALSeq(),
		Objects:    snap.NumObjects(),
		Generation: snap.Generation(),
	})
}

func (n *Node) handleInfo() (byte, []byte) {
	info, err := n.cfg.Service.InfoSnapshot()
	if err != nil {
		return errReply(err)
	}
	data, err := json.Marshal(info)
	if err != nil {
		return errReply(err)
	}
	return msgInfo | replyBit, data
}
