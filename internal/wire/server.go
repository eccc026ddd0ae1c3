package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"sync"

	"squirrel/internal/clock"
	"squirrel/internal/delta"
	"squirrel/internal/relation"
	"squirrel/internal/source"
)

// SourceBackend is what SourceServer serves: anything that behaves as an
// autonomous source — a name, a relation catalog, an announcement feed,
// atomic multi-relation snapshot reads, and (optionally honored) write
// submission. *source.DB is the canonical backend; federate.Exporter
// satisfies it too, which is how a mediator's exports go on the wire as a
// source for the tier above (DESIGN.md §11).
//
// Concurrency: the server calls QueryMulti from per-connection handler
// goroutines concurrently with the Subscribe feed; implementations must
// be safe for that, and must invoke announcement handlers in commit
// order (the §6.3 FIFO contract the server preserves per connection).
type SourceBackend interface {
	// Name identifies the source (sent in the hello).
	Name() string
	// Relations lists the served relation names.
	Relations() []string
	// Schema returns one relation's schema.
	Schema(rel string) (*relation.Schema, error)
	// Subscribe registers an announcement handler. Handlers run inside
	// the backend's commit path and must not block.
	Subscribe(h source.Handler)
	// QueryMulti answers several snapshot reads atomically, returning the
	// answered state's timestamp.
	QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error)
	// Apply submits a write transaction (backends that are read-only from
	// above, like a mediator export face, return an error).
	Apply(d *delta.Delta) (clock.Time, error)
}

// TieredBackend is optionally implemented by backends whose answers carry
// a base-source-coordinates validity vector alongside the timestamp —
// federate.Exporter does. The server forwards the vector on answer
// messages so a consuming mediator can compose Reflect vectors across
// tiers (core.TieredConn on the client side).
type TieredBackend interface {
	QueryMultiBase(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, clock.Vector, error)
}

// SourceServer exposes one source backend over TCP. Each accepted
// connection gets the announcement feed plus query service, multiplexed
// over a single per-connection FIFO so Eager Compensation's ordering
// assumption holds end to end.
//
// Concurrency: Start/Serve may be called once; Close is safe from any
// goroutine and waits for per-connection handlers to exit. The exported
// fields (Logf, OutboxCap) must be set before Serve/Start.
type SourceServer struct {
	db SourceBackend
	ln net.Listener

	mu     sync.Mutex
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup
	// Logf, if set, receives protocol errors (default: log.Printf).
	Logf func(format string, args ...any)
	// OutboxCap bounds each connection's outgoing message queue (0 =
	// default 1024). Set before Serve/Start. A connection whose reader
	// stalls long enough to fill its outbox is dropped — the announcement
	// feed never blocks on one slow consumer.
	OutboxCap int
}

type srvConn struct {
	conn net.Conn
	out  chan Message
	done chan struct{}
}

// NewSourceServer wraps a source database; call Serve with a listener.
func NewSourceServer(db *source.DB) *SourceServer {
	return NewBackendServer(db)
}

// NewBackendServer wraps any SourceBackend — the constructor to use when
// serving a mediator's exports (federate.Exporter) as a source for the
// tier above.
func NewBackendServer(b SourceBackend) *SourceServer {
	return &SourceServer{db: b, conns: make(map[*srvConn]struct{})}
}

// ListenAndServe listens on addr and serves until Close. It returns the
// bound address via the Addr method once listening; use Start for a
// ready-signaled variant.
func (s *SourceServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Start listens on addr (use ":0" for an ephemeral port), begins serving
// in the background, and returns the bound address.
func (s *SourceServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			s.logf("wire: serve: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Serve accepts connections on ln until Close.
func (s *SourceServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	// One subscription on the database fans out to all live connections.
	// The callback runs inside the source's commit, so it must never
	// block: the connection set is snapshotted under mu (released before
	// any send), and each send is non-blocking — a connection whose
	// bounded outbox is full has a stalled reader and is dropped, rather
	// than stalling the feed to every other connection (and the committer
	// behind it).
	s.db.Subscribe(func(a source.Announcement) {
		msg := Message{Type: "announce", Source: a.Source, Time: a.Time,
			Seq: a.Seq, FirstSeq: a.FirstSeq,
			Reflect: a.Reflect, Barrier: a.Barrier}
		if a.Delta != nil {
			// Barrier announcements carry no delta: the publish they
			// report was not produced by one.
			d := EncodeDelta(a.Delta)
			msg.Delta = &d
		}
		s.mu.Lock()
		live := make([]*srvConn, 0, len(s.conns))
		for c := range s.conns {
			live = append(live, c)
		}
		s.mu.Unlock()
		for _, c := range live {
			if !c.trySend(msg) {
				s.logf("wire: dropping %v: announcement outbox full (stalled reader)", c.conn.RemoteAddr())
				s.drop(c)
			}
		}
	})
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		outCap := s.OutboxCap
		if outCap <= 0 {
			outCap = 1024
		}
		c := &srvConn{conn: conn, out: make(chan Message, outCap), done: make(chan struct{})}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(2)
		go s.writeLoop(c)
		go s.readLoop(c)
	}
}

func (c *srvConn) send(m Message) {
	select {
	case c.out <- m:
	case <-c.done:
	}
}

// trySend is the non-blocking send the announcement fan-out uses. It
// reports false only when the outbox is full (a stalled reader); a
// closed connection swallows the message and reports true.
func (c *srvConn) trySend(m Message) bool {
	select {
	case c.out <- m:
		return true
	case <-c.done:
		return true
	default:
		return false
	}
}

func (s *SourceServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (s *SourceServer) writeLoop(c *srvConn) {
	defer s.wg.Done()
	w := bufio.NewWriter(c.conn)
	for {
		select {
		case m := <-c.out:
			b, err := encode(m)
			if err != nil {
				s.logf("wire: encode: %v", err)
				continue
			}
			if _, err := w.Write(b); err != nil {
				s.drop(c)
				return
			}
			// Flush when the queue drains so batches coalesce.
			if len(c.out) == 0 {
				if err := w.Flush(); err != nil {
					s.drop(c)
					return
				}
			}
		case <-c.done:
			return
		}
	}
}

func (s *SourceServer) readLoop(c *srvConn) {
	defer s.wg.Done()
	defer s.drop(c)
	c.send(Message{Type: "hello", Name: s.db.Name(), Proto: ProtocolVersion})
	scanner := bufio.NewScanner(c.conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for scanner.Scan() {
		var m Message
		if err := json.Unmarshal(scanner.Bytes(), &m); err != nil {
			c.send(Message{Type: "error", Error: "bad message: " + err.Error()})
			continue
		}
		switch m.Type {
		case "query":
			specs := make([]source.QuerySpec, len(m.Specs))
			ok := true
			for i, ws := range m.Specs {
				spec, err := ws.Decode()
				if err != nil {
					c.send(Message{Type: "error", ID: m.ID, Error: err.Error()})
					ok = false
					break
				}
				specs[i] = spec
			}
			if !ok {
				continue
			}
			var answers []*relation.Relation
			var asOf clock.Time
			var base clock.Vector
			var err error
			if tb, tiered := s.db.(TieredBackend); tiered {
				answers, asOf, base, err = tb.QueryMultiBase(specs)
			} else {
				answers, asOf, err = s.db.QueryMulti(specs)
			}
			if err != nil {
				c.send(Message{Type: "error", ID: m.ID, Error: err.Error()})
				continue
			}
			resp := Message{Type: "answer", ID: m.ID, AsOf: asOf, Reflect: base}
			for _, a := range answers {
				resp.Answers = append(resp.Answers, EncodeRelation(a))
			}
			c.send(resp)
		case "catalog":
			resp := Message{Type: "answer", ID: m.ID}
			names := s.db.Relations()
			sortStrings(names)
			for _, name := range names {
				schema, err := s.db.Schema(name)
				if err != nil {
					continue
				}
				resp.Schemas = append(resp.Schemas, EncodeSchema(schema))
			}
			c.send(resp)
		case "apply":
			// Remote transaction submission (used by drivers/loaders).
			if m.Delta == nil {
				c.send(Message{Type: "error", ID: m.ID, Error: "apply without delta"})
				continue
			}
			d, err := m.Delta.Decode()
			if err != nil {
				c.send(Message{Type: "error", ID: m.ID, Error: err.Error()})
				continue
			}
			t, err := s.db.Apply(d)
			if err != nil {
				c.send(Message{Type: "error", ID: m.ID, Error: err.Error()})
				continue
			}
			c.send(Message{Type: "answer", ID: m.ID, AsOf: t})
		default:
			c.send(Message{Type: "error", ID: m.ID, Error: "unknown message type " + m.Type})
		}
	}
}

func (s *SourceServer) drop(c *srvConn) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		close(c.done)
		c.conn.Close()
	}
	s.mu.Unlock()
}

// Close stops the listener and drops every connection.
func (s *SourceServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		delete(s.conns, c)
		close(c.done)
		c.conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
