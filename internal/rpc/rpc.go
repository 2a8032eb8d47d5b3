// Package rpc is the network transport for Alpenhorn's daemons: a minimal
// length-prefixed JSON request/response protocol over TCP.
//
// The in-process server types (pkgserver.Server, mixnet.Server, ...) hold
// all protocol logic; this package only moves their arguments across
// machine boundaries. cmd/alpenhorn-pkg and friends register method
// handlers on a Server; clients use Client.Call with mirrored argument
// structs. Security note: Alpenhorn's protocol messages authenticate
// themselves (signatures, AEADs), so the transport adds no cryptography;
// a deployment would still wrap it in TLS for hygiene.
package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// maxMessageSize bounds a single request or response (64 MB: a full
// add-friend mailbox batch fits comfortably).
const maxMessageSize = 64 << 20

// request is the wire format of one call.
type request struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params"`
}

// response is the wire format of one reply.
type response struct {
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// resultPrefix and resultSuffix enclose a successful reply's result:
// json.Marshal(response{Result: raw}) is exactly resultPrefix, raw,
// resultSuffix when raw is json.Marshal output.
var (
	resultPrefix = []byte(`{"result":`)
	resultSuffix = []byte(`}`)
)

// writeFrame writes one length-prefixed frame whose payload is the
// concatenation of parts, in a single vectored write on a TCP connection.
func writeFrame(w io.Writer, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxMessageSize {
		return errors.New("rpc: message too large")
	}
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, uint32(n))
	bufs := append(net.Buffers{hdr}, parts...)
	_, err := bufs.WriteTo(w)
	return err
}

// responseParts encodes one reply as payload parts for writeFrame. A
// result goes out as json.Marshal encoded it, between resultPrefix and
// resultSuffix: marshalling it inside response would copy and re-scan it
// (a json.RawMessage is compacted and HTML-escaped again) only to produce
// the same bytes. Errors and empty replies go through json.Marshal.
func responseParts(result any, herr error) ([][]byte, error) {
	if herr == nil && result != nil {
		raw, err := json.Marshal(result)
		if err == nil {
			return [][]byte{resultPrefix, raw, resultSuffix}, nil
		}
		herr = fmt.Errorf("rpc: encoding result: %v", err)
	}
	var resp response
	if herr != nil {
		resp.Error = herr.Error()
	}
	out, err := json.Marshal(resp)
	return [][]byte{out}, err
}

// decodeResponse decodes one reply payload into result (which may be
// nil). Every successful reply is resultPrefix, one JSON value,
// resultSuffix, so the value is sliced out and decoded in place rather
// than through response, whose json.RawMessage would copy it. If the slice
// is not one valid JSON value (a SyntaxError, reported before anything is
// decoded) or the payload has any other shape, json.Unmarshal of the whole
// payload decides, so both paths agree on every frame.
func decodeResponse(payload []byte, result any) error {
	if result != nil && bytes.HasPrefix(payload, resultPrefix) && bytes.HasSuffix(payload, resultSuffix) {
		raw := payload[len(resultPrefix) : len(payload)-len(resultSuffix)]
		err := json.Unmarshal(raw, result)
		var syntax *json.SyntaxError
		if !errors.As(err, &syntax) {
			return err
		}
	}
	var resp response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return err
	}
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	if result != nil && len(resp.Result) > 0 {
		return json.Unmarshal(resp.Result, result)
	}
	return nil
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxMessageSize {
		return nil, errors.New("rpc: frame too large")
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Handler processes one method call. Params is the raw JSON of the
// caller's argument struct; the returned value is JSON-encoded as the
// result.
type Handler func(params json.RawMessage) (any, error)

// PeerHandler is a Handler that also sees the caller's remote address
// (host:port of the TCP connection). The transport is unauthenticated, so
// a peer address is a topology signal, not an identity — it gates
// server-plane surfaces like mix.round.exportkey to an allowlisted shard
// network, on top of whatever the deployment's network layer enforces.
type PeerHandler func(peerAddr string, params json.RawMessage) (any, error)

// Server dispatches method calls to registered handlers.
type Server struct {
	mu           sync.Mutex
	handlers     map[string]Handler
	peerHandlers map[string]PeerHandler
	ln           net.Listener
	conns        map[net.Conn]struct{}
	wg           sync.WaitGroup
	closed       bool
	closing      chan struct{}
}

// NewServer creates an empty RPC server.
func NewServer() *Server {
	return &Server{
		handlers:     make(map[string]Handler),
		peerHandlers: make(map[string]PeerHandler),
		conns:        make(map[net.Conn]struct{}),
		closing:      make(chan struct{}),
	}
}

// Closing is closed when Close begins. Long-poll handlers (entry.events,
// mix.round.wait) select on it so a shutting-down server never waits on a
// parked handler's full poll interval.
func (s *Server) Closing() <-chan struct{} { return s.closing }

// Handle registers a handler for a method name.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// HandleFunc registers a handler with typed parameters: fn must be a
// func(T) (any, error); params JSON is decoded into T.
func HandleFunc[T any](s *Server, method string, fn func(T) (any, error)) {
	s.Handle(method, func(params json.RawMessage) (any, error) {
		var arg T
		if len(params) > 0 {
			if err := json.Unmarshal(params, &arg); err != nil {
				return nil, fmt.Errorf("rpc: bad params for %s: %w", method, err)
			}
		}
		return fn(arg)
	})
}

// HandlePeerFunc registers a peer-aware handler with typed parameters:
// fn receives the caller's remote address alongside the decoded params.
// A peer-aware registration replaces any plain handler for the method.
func HandlePeerFunc[T any](s *Server, method string, fn func(peerAddr string, arg T) (any, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peerHandlers[method] = func(peerAddr string, params json.RawMessage) (any, error) {
		var arg T
		if len(params) > 0 {
			if err := json.Unmarshal(params, &arg); err != nil {
				return nil, fmt.Errorf("rpc: bad params for %s: %w", method, err)
			}
		}
		return fn(peerAddr, arg)
	}
}

// Serve starts accepting connections on the listener and returns
// immediately; connections are handled on background goroutines.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
		}
	}()
}

// Listen starts the server on a TCP address and returns the bound address
// (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops accepting connections, disconnects clients, and waits for
// in-flight calls to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.closing)
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		var req request
		if err := json.Unmarshal(payload, &req); err != nil {
			return
		}
		s.mu.Lock()
		h := s.handlers[req.Method]
		if ph := s.peerHandlers[req.Method]; ph != nil {
			peerAddr := conn.RemoteAddr().String()
			h = func(params json.RawMessage) (any, error) {
				return ph(peerAddr, params)
			}
		}
		s.mu.Unlock()

		var result any
		var herr error
		if h == nil {
			herr = errors.New("rpc: unknown method " + req.Method)
		} else {
			result, herr = h(req.Params)
		}
		parts, err := responseParts(result, herr)
		if err != nil {
			return
		}
		if err := writeFrame(conn, parts...); err != nil {
			return
		}
	}
}

// Client is a connection-per-call-free RPC client: one TCP connection,
// serialized calls. Safe for concurrent use.
type Client struct {
	addr    string
	timeout time.Duration

	mu   sync.Mutex // serializes calls on the connection
	conn net.Conn

	// Transport accounting: the chain-forward acceptance test and the
	// bench harness use these to prove the coordinator's connections
	// carry control messages, not batch payloads. The counters live
	// under their OWN lock so reading stats never parks behind an
	// in-flight call — an entry.events long-poll holds mu for up to its
	// full wait.
	statsMu       sync.Mutex
	bytesSent     uint64
	bytesReceived uint64
	calls         map[string]uint64
}

// ClientStats is a snapshot of one client's transport accounting.
type ClientStats struct {
	BytesSent     uint64
	BytesReceived uint64
	Calls         uint64
}

// Dial creates a client for the given address. The connection is
// established lazily and re-established after errors.
func Dial(addr string) *Client {
	return &Client{addr: addr, timeout: 30 * time.Second, calls: make(map[string]uint64)}
}

// Stats returns cumulative bytes moved and calls made by this client,
// counting frame headers and retried writes.
func (c *Client) Stats() ClientStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	var n uint64
	for _, v := range c.calls {
		n += v
	}
	return ClientStats{BytesSent: c.bytesSent, BytesReceived: c.bytesReceived, Calls: n}
}

// CallCount returns how many times this client has invoked a method.
func (c *Client) CallCount(method string) uint64 {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.calls[method]
}

// countCall records one invocation of method.
func (c *Client) countCall(method string) {
	c.statsMu.Lock()
	c.calls[method]++
	c.statsMu.Unlock()
}

// addBytes records frame bytes moved on the wire (headers included).
func (c *Client) addBytes(sent, received uint64) {
	c.statsMu.Lock()
	c.bytesSent += sent
	c.bytesReceived += received
	c.statsMu.Unlock()
}

// Call invokes a remote method. result may be nil to discard the reply.
//
// On a dead connection Call transparently reconnects and re-sends ONCE,
// which is only safe for idempotent methods: if the request executed but
// the reply was lost, the retry executes it again. Data-plane mutations
// that append state (stream chunks, publish fragments) must use CallOnce.
func (c *Client) Call(method string, params any, result any) error {
	return c.call(context.Background(), method, params, result, c.timeout, 2)
}

// CallContext is Call honoring a context: the dial respects ctx, the I/O
// deadline is the earlier of ctx's deadline and the client timeout, and
// cancelling ctx mid-call closes the connection so a parked call (e.g. an
// entry.events long-poll against a dead frontend) returns promptly
// instead of wedging the caller.
func (c *Client) CallContext(ctx context.Context, method string, params any, result any) error {
	return c.call(ctx, method, params, result, c.timeout, 2)
}

// CallOnce invokes a remote method with NO transparent retry: the request
// is sent at most once, and any transport failure surfaces as an error.
// Use it for non-idempotent calls; the caller recovers at a higher level
// (a failed mix round aborts and the next round carries the traffic).
func (c *Client) CallOnce(method string, params any, result any) error {
	return c.call(context.Background(), method, params, result, c.timeout, 1)
}

// ErrTransport marks failures that happened in the transport — dialing,
// writing, or reading a frame — as opposed to errors returned by the
// remote handler. Callers with their own retry policy (e.g. a mixer
// dialing a successor that is still coming up) use errors.Is(err,
// ErrTransport) to retry only failures where re-sending can help.
var ErrTransport = errors.New("rpc: transport failure")

func (c *Client) call(ctx context.Context, method string, params any, result any, timeout time.Duration, maxAttempts int) error {
	raw, err := json.Marshal(params)
	if err != nil {
		return err
	}
	req, err := json.Marshal(request{Method: method, Params: raw})
	if err != nil {
		return err
	}

	c.countCall(method)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Reconnect attempts on a stale connection, bounded by maxAttempts.
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("rpc: call %s: %w", method, err)
		}
		if c.conn == nil {
			dialer := net.Dialer{Timeout: timeout}
			conn, err := dialer.DialContext(ctx, "tcp", c.addr)
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return fmt.Errorf("rpc: dialing %s: %w", c.addr, ctxErr)
				}
				return fmt.Errorf("%w: dialing %s: %v", ErrTransport, c.addr, err)
			}
			c.conn = conn
		}
		deadline := time.Now().Add(timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		c.conn.SetDeadline(deadline)
		// Cancellation mid-call must interrupt a blocked read (a parked
		// long-poll, a dead peer): closing the conn is the only portable
		// interrupt. The next call reconnects.
		conn := c.conn
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		c.addBytes(uint64(len(req))+4, 0)
		if err := writeFrame(c.conn, req); err != nil {
			stop()
			c.conn.Close()
			c.conn = nil
			if ctxErr := ctx.Err(); ctxErr != nil {
				return fmt.Errorf("rpc: writing to %s: %w", c.addr, ctxErr)
			}
			if attempt < maxAttempts-1 {
				continue
			}
			return fmt.Errorf("%w: writing to %s: %v", ErrTransport, c.addr, err)
		}
		payload, err := readFrame(c.conn)
		stop()
		if err != nil {
			c.conn.Close()
			c.conn = nil
			if ctxErr := ctx.Err(); ctxErr != nil {
				return fmt.Errorf("rpc: reading from %s: %w", c.addr, ctxErr)
			}
			if attempt < maxAttempts-1 {
				continue
			}
			return fmt.Errorf("%w: reading from %s: %v", ErrTransport, c.addr, err)
		}
		c.addBytes(0, uint64(len(payload))+4)
		return decodeResponse(payload, result)
	}
}

// Close closes the underlying connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}
