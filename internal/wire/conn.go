package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// This file is the connection layer every endpoint shares: the framing
// (one JSON message per line), the client dial and hello, the server
// connection loop and the redial backoff.

// maxLine caps one framed message.
const maxLine = 64 << 20

// frameConn is one framed connection. Reads and writes may run on two
// goroutines; each side has one user at a time.
type frameConn struct {
	net.Conn
	r *bufio.Scanner
	w *bufio.Writer
}

func newFrameConn(conn net.Conn) *frameConn {
	r := bufio.NewScanner(conn)
	r.Buffer(make([]byte, 0, 64*1024), maxLine)
	return &frameConn{Conn: conn, r: r, w: bufio.NewWriter(conn)}
}

// badLine is read's error for a line that is not a message. The framing
// survives it: the next read returns the next line.
type badLine struct{ err error }

func (e badLine) Error() string { return "bad message: " + e.err.Error() }

// read returns the next message. A line that does not decode is a
// badLine error; any other error means the connection is gone.
func (c *frameConn) read() (Message, error) {
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return Message{}, err
		}
		return Message{}, fmt.Errorf("wire: connection closed")
	}
	var m Message
	if err := json.Unmarshal(c.r.Bytes(), &m); err != nil {
		return Message{}, badLine{err}
	}
	return m, nil
}

// write sends m at once. A failed write resets the writer, which would
// otherwise return the same error forever, so a transient fault does not
// outlive itself; a broken transport shows on the read side.
func (c *frameConn) write(m Message) error {
	b, err := encode(m)
	if err != nil {
		return err
	}
	if _, err = c.w.Write(b); err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		c.w.Reset(c.Conn)
	}
	return err
}

// call writes m and reads the next message: the reply, on a connection
// that has one request in flight.
func (c *frameConn) call(m Message) (Message, error) {
	if err := c.write(m); err != nil {
		return Message{}, err
	}
	return c.read()
}

// encode marshals a message plus newline.
func encode(m Message) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// link holds a client's current connection where Close can reach it.
// dial stores each new connection here before its first blocking read, so
// Close also ends a handshake the server never answers.
type link struct {
	mu     sync.Mutex // also guards Client's and SubClient's own fields
	conn   *frameConn
	closed bool
	done   chan struct{} // closed by Close; ends a redial's backoff
}

var errClosed = errors.New("wire: client closed")

func (l *link) adopt(conn *frameConn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	l.conn = conn
	return nil
}

// drop closes conn, and forgets it if it is still the current connection.
func (l *link) drop(conn *frameConn) {
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.mu.Unlock()
	conn.Close()
}

// Close tears the connection down and ends any redial. Safe to call from
// any goroutine, more than once.
func (l *link) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.done)
	conn := l.conn
	l.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// dial connects to a server, makes the connection l's, and reads its
// hello. wrap, if set, wraps the new connection.
func dial(addr string, wrap func(net.Conn) net.Conn, l *link) (*frameConn, Message, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, Message{}, err
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	c := newFrameConn(conn)
	if err := l.adopt(c); err != nil {
		conn.Close()
		return nil, Message{}, err
	}
	hello, err := c.read()
	if err := checkHello(hello, err); err != nil {
		l.drop(c)
		return nil, Message{}, fmt.Errorf("wire: handshake with %s failed: %v", addr, err)
	}
	return c, hello, nil
}

// checkHello returns err, or an error unless m is a hello of
// ProtocolVersion.
func checkHello(m Message, err error) error {
	if err != nil {
		return err
	}
	if m.Type != "hello" {
		return fmt.Errorf("wire: expected hello, got %q", m.Type)
	}
	if m.Proto != ProtocolVersion {
		return fmt.Errorf("wire: peer %q speaks protocol version %d, this side speaks %d",
			m.Name, m.Proto, ProtocolVersion)
	}
	return nil
}

// redial calls connect until it succeeds, waiting base after the first
// failure and twice as long after each further one, up to limit. It stops
// waiting, and reports false, once done is closed.
func redial(base, limit time.Duration, done <-chan struct{}, connect func() error) bool {
	for delay := base; connect() != nil; delay = min(2*delay, limit) {
		select {
		case <-done:
			return false
		case <-time.After(delay):
		}
	}
	return true
}

// A handler answers one request: the reply to send (the loop stamps it
// with the request's ID), or an error to send as an error reply. A
// handler that sends its own reply returns a zero Message.
type handler func(m Message) (Message, error)

// server is the connection loop both servers share. It accepts
// connections, greets each with a hello, reads its requests in order on
// one goroutine and dispatches them by type, and writes everything the
// connection sends from a second goroutine that drains a bounded outbox.
type server struct {
	name string // sent in every hello
	// open prepares one connection: its request handlers by message type,
	// and a func run once after its last request (nil: nothing to end).
	open func(c *srvConn) (map[string]handler, func())
	logf func(format string, args ...any)
	// outboxCap bounds each connection's outbox (0 = 1024). A connection
	// whose reader stalls long enough to fill it is dropped by trySend.
	outboxCap int

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// srvConn is one served connection. Only its writer goroutine writes to
// it; everything else queues messages with send or trySend.
type srvConn struct {
	*frameConn
	out  chan *Message
	done chan struct{} // closed when the connection is dropped
}

// send queues m, waiting while the outbox is full. It reports false once
// the connection is gone.
func (c *srvConn) send(m Message) bool {
	select {
	case c.out <- &m:
		return true
	case <-c.done:
		return false
	}
}

// trySend is the non-blocking send the announcement fan-out uses, which
// shares one message across connections. It reports false only when the
// outbox is full (a stalled reader); a closed connection swallows the
// message and reports true.
func (c *srvConn) trySend(m *Message) bool {
	select {
	case c.out <- m:
		return true
	case <-c.done:
		return true
	default:
		return false
	}
}

// Start listens on addr (":0" for an ephemeral port), serves in the
// background until Close, and returns the bound address.
func (s *server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		ln.Close()
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	outCap := s.outboxCap
	if outCap <= 0 {
		outCap = 1024
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				s.logf("wire: accept: %v", err)
			}
			return
		}
		c := &srvConn{frameConn: newFrameConn(conn),
			out: make(chan *Message, outCap), done: make(chan struct{})}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		// The accept loop's own count keeps the group above zero here, so
		// Close's Wait cannot have returned.
		s.wg.Add(2)
		go s.writeLoop(c)
		go s.readLoop(c)
	}
}

// live snapshots the connection set.
func (s *server) live() []*srvConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	return out
}

func (s *server) readLoop(c *srvConn) {
	defer s.wg.Done()
	handlers, end := s.open(c)
	c.send(Message{Type: "hello", Name: s.name, Proto: ProtocolVersion})
	for {
		m, err := c.read()
		if _, bad := err.(badLine); bad {
			c.send(Message{Type: "error", Error: err.Error()})
			continue
		}
		if err != nil {
			break
		}
		h := handlers[m.Type]
		if h == nil {
			c.send(Message{Type: "error", ID: m.ID, Error: "unknown message type " + m.Type})
			continue
		}
		reply, err := h(m)
		if err != nil {
			reply = Message{Type: "error", Error: err.Error()}
		}
		if reply.Type != "" {
			reply.ID = m.ID
			c.send(reply)
		}
	}
	s.drop(c)
	if end != nil {
		end()
	}
}

func (s *server) writeLoop(c *srvConn) {
	defer s.wg.Done()
	for {
		select {
		case m := <-c.out:
			b, err := encode(*m)
			if err != nil {
				// The peer sees the connection end rather than wait for a
				// reply that cannot be sent.
				s.logf("wire: dropping %v: encode %s: %v", c.RemoteAddr(), m.Type, err)
				s.drop(c)
				return
			}
			_, err = c.w.Write(b)
			// Flush when the outbox drains, so a burst goes out in few writes.
			if err == nil && len(c.out) == 0 {
				err = c.w.Flush()
			}
			if err != nil {
				s.drop(c)
				return
			}
		case <-c.done:
			return
		}
	}
}

func (s *server) drop(c *srvConn) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		close(c.done)
		c.Close()
	}
	s.mu.Unlock()
}

// Close stops the listener, drops every connection, and waits for their
// goroutines to exit.
func (s *server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	for _, c := range s.live() {
		s.drop(c)
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
