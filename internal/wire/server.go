package wire

import (
	"fmt"
	"log"
	"sort"

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
// Concurrency: Start may be called once; Close is safe from any
// goroutine and waits for per-connection handlers to exit. Logf must be
// set before Start.
type SourceServer struct {
	server
	db SourceBackend
	// Logf, if set, receives protocol errors (default: log.Printf).
	Logf func(format string, args ...any)
}

// NewSourceServer wraps a source database; call Start to serve it.
func NewSourceServer(db *source.DB) *SourceServer {
	return NewBackendServer(db)
}

// NewBackendServer wraps any SourceBackend — the constructor to use when
// serving a mediator's exports (federate.Exporter) as a source for the
// tier above.
func NewBackendServer(b SourceBackend) *SourceServer {
	s := &SourceServer{db: b}
	handlers := map[string]handler{"query": s.query, "catalog": s.catalog, "apply": s.apply}
	s.server = server{
		name: b.Name(),
		open: func(*srvConn) (map[string]handler, func()) { return handlers, nil },
		logf: func(format string, args ...any) {
			if s.Logf != nil {
				s.Logf(format, args...)
				return
			}
			log.Printf(format, args...)
		},
		conns: make(map[*srvConn]struct{}),
	}
	return s
}

// Start subscribes to the backend's announcements, then listens on addr
// (":0" for an ephemeral port) and serves in the background, returning
// the bound address.
func (s *SourceServer) Start(addr string) (string, error) {
	s.db.Subscribe(s.announce)
	return s.server.Start(addr)
}

// announce fans one announcement out to every live connection. It runs
// inside the source's commit, so it must never block: the connection set
// is snapshotted (the lock released before any send), and each send is
// non-blocking — a connection whose bounded outbox is full has a stalled
// reader and is dropped, rather than stalling the feed to every other
// connection (and the committer behind it).
func (s *SourceServer) announce(a source.Announcement) {
	msg := &Message{Type: "announce", Source: a.Source, Time: a.Time,
		Seq: a.Seq, FirstSeq: a.FirstSeq,
		Reflect: a.Reflect, Barrier: a.Barrier}
	if a.Delta != nil {
		// Barrier announcements carry no delta: the publish they
		// report was not produced by one.
		d := EncodeDelta(a.Delta)
		msg.Delta = &d
	}
	for _, c := range s.live() {
		if !c.trySend(msg) {
			s.logf("wire: dropping %v: announcement outbox full (stalled reader)", c.RemoteAddr())
			s.drop(c)
		}
	}
}

func (s *SourceServer) query(m Message) (Message, error) {
	specs := make([]source.QuerySpec, len(m.Specs))
	for i, ws := range m.Specs {
		spec, err := ws.Decode()
		if err != nil {
			return Message{}, err
		}
		specs[i] = spec
	}
	resp := Message{Type: "answer"}
	var answers []*relation.Relation
	var err error
	if tb, tiered := s.db.(TieredBackend); tiered {
		answers, resp.AsOf, resp.Reflect, err = tb.QueryMultiBase(specs)
	} else {
		answers, resp.AsOf, err = s.db.QueryMulti(specs)
	}
	if err != nil {
		return Message{}, err
	}
	for _, a := range answers {
		resp.Answers = append(resp.Answers, EncodeRelation(a))
	}
	return resp, nil
}

func (s *SourceServer) catalog(Message) (Message, error) {
	resp := Message{Type: "answer"}
	names := s.db.Relations()
	sort.Strings(names)
	for _, name := range names {
		schema, err := s.db.Schema(name)
		if err != nil {
			continue
		}
		resp.Schemas = append(resp.Schemas, EncodeSchema(schema))
	}
	return resp, nil
}

// apply commits a remote transaction (used by drivers and loaders).
func (s *SourceServer) apply(m Message) (Message, error) {
	if m.Delta == nil {
		return Message{}, fmt.Errorf("apply without delta")
	}
	d, err := m.Delta.Decode()
	if err != nil {
		return Message{}, err
	}
	t, err := s.db.Apply(d)
	if err != nil {
		return Message{}, err
	}
	return Message{Type: "answer", AsOf: t}, nil
}
