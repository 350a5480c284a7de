package cluster

// client.go is the RPC client: one Client per endpoint, pooling idle TCP
// connections. Calls are strict request/response; concurrency comes from
// the caller issuing calls from multiple goroutines, each drawing its own
// connection from the pool.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"stpq/internal/serve"
)

// DefaultRPCTimeout bounds one RPC (dial + write + read) when the caller
// does not configure one.
const DefaultRPCTimeout = 10 * time.Second

// Client issues cluster RPCs against one endpoint.
type Client struct {
	addr    string
	timeout time.Duration

	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

// NewClient creates a client for addr ("host:port"). timeout bounds each
// call end-to-end; 0 uses DefaultRPCTimeout.
func NewClient(addr string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultRPCTimeout
	}
	return &Client{addr: addr, timeout: timeout}
}

// Addr returns the endpoint this client dials.
func (c *Client) Addr() string { return c.addr }

// Close drops every idle connection; in-flight calls finish on their own
// connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conn := range c.idle {
		conn.Close()
	}
	c.idle = nil
}

// get draws an idle connection or dials a fresh one.
func (c *Client) get() (net.Conn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	return net.DialTimeout("tcp", c.addr, c.timeout)
}

// put returns a healthy connection to the pool.
func (c *Client) put(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= 8 {
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
}

// call performs one RPC round trip. Transport errors close the connection
// (the pool self-heals by redialing); protocol error replies keep it.
func (c *Client) call(reqType byte, payload []byte) ([]byte, error) {
	conn, err := c.get()
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", c.addr, err)
	}
	deadline := time.Now().Add(c.timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	if err := writeFrame(conn, reqType, payload); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: write to %s: %w", c.addr, err)
	}
	typ, reply, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: read from %s: %w", c.addr, err)
	}
	c.put(conn)
	switch typ {
	case reqType | replyBit:
		return reply, nil
	case msgError:
		return nil, decodeError(reply)
	default:
		return nil, fmt.Errorf("%w: reply type 0x%02x to request 0x%02x", ErrBadFrame, typ, reqType)
	}
}

// Query executes one top-k query on the node.
func (c *Client) Query(q WireQuery) (QueryReply, error) {
	reply, err := c.call(msgQuery, encodeQuery(q))
	if err != nil {
		return QueryReply{}, err
	}
	return decodeQueryReply(reply)
}

// Segment fetches the oldest sealed WAL segment with records ≥ from.
func (c *Client) Segment(from uint64) (SegmentReply, error) {
	reply, err := c.call(msgSegment, encodeSegmentRequest(SegmentRequest{From: from}))
	if err != nil {
		return SegmentReply{}, err
	}
	return decodeSegmentReply(reply)
}

// Health reads the node's liveness and replication watermark.
func (c *Client) Health() (HealthReply, error) {
	reply, err := c.call(msgHealth, nil)
	if err != nil {
		return HealthReply{}, err
	}
	return decodeHealthReply(reply)
}

// Info reads the node's dataset description (the /info payload).
func (c *Client) Info() (serve.Info, error) {
	reply, err := c.call(msgInfo, nil)
	if err != nil {
		return serve.Info{}, err
	}
	var info serve.Info
	if err := json.Unmarshal(reply, &info); err != nil {
		return serve.Info{}, fmt.Errorf("cluster: info from %s: %w", c.addr, err)
	}
	return info, nil
}

// retryable reports whether an attempt may succeed on retry or on another
// replica: transport errors always, protocol errors unless invalid.
func retryable(err error) bool {
	var rpc *RPCError
	if errors.As(err, &rpc) {
		return rpc.Retryable()
	}
	return true
}
