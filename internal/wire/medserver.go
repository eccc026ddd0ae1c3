package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"squirrel/internal/algebra"
	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/metrics"
	"squirrel/internal/relation"
)

// StatsPayload is the wire form of the mediator's counters — core.Stats
// marshals directly (all fields exported, health values string-typed).
type StatsPayload = core.Stats

// AdvicePayload is the wire form of one adaptive-annotation decision round
// — core.AdaptDecision marshals directly (all fields exported).
type AdvicePayload = core.AdaptDecision

// MediatorServer exposes a mediator's Query Processor over TCP, completing
// the Figure 3 deployment: applications connect to the mediator exactly as
// the mediator connects to its sources. Each connection is served on its
// own goroutine, and the mediator's query path is lock-free against a
// published store version — so concurrent clients' purely-materialized
// queries proceed in parallel, even while update transactions run.
type MediatorServer struct {
	med *core.Mediator

	mu     sync.Mutex
	adapt  *core.AdaptController
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewMediatorServer wraps a mediator.
func NewMediatorServer(med *core.Mediator) *MediatorServer {
	return &MediatorServer{med: med, conns: make(map[net.Conn]struct{})}
}

// SetAdaptController attaches an adaptive-annotation controller so
// "readvise" requests share its workload window and hysteresis state
// (typically the controller whose loop is already running against this
// mediator). Without one, the first "readvise" lazily creates a manual
// controller owned by the server.
func (s *MediatorServer) SetAdaptController(ctrl *core.AdaptController) {
	s.mu.Lock()
	s.adapt = ctrl
	s.mu.Unlock()
}

// adaptController returns the attached controller, creating a manual one
// on first use.
func (s *MediatorServer) adaptController() *core.AdaptController {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.adapt == nil {
		s.adapt = core.NewAdaptController(s.med, core.AdaptConfig{Manual: true})
	}
	return s.adapt
}

// Start listens on addr (":0" for ephemeral) and serves in the background,
// returning the bound address.
func (s *MediatorServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *MediatorServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *MediatorServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Subscription pump goroutines share the connection's writer with the
	// request/reply loop, so sends are serialized behind wmu. Replies and
	// frames may interleave, but each message is written atomically.
	w := bufio.NewWriter(conn)
	var wmu sync.Mutex
	send := func(m Message) bool {
		b, err := encode(m)
		if err != nil {
			return false
		}
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := w.Write(b); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	// subs tracks this connection's live subscriptions by export (touched
	// only by this goroutine); their pump goroutines exit when the
	// subscription closes or the connection dies.
	subs := make(map[string]*core.Subscription)
	var pumps sync.WaitGroup
	defer func() {
		for _, sub := range subs {
			sub.Close()
		}
		pumps.Wait()
	}()
	if !send(Message{Type: "hello", Name: "mediator"}) {
		return
	}
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for scanner.Scan() {
		var m Message
		if err := json.Unmarshal(scanner.Bytes(), &m); err != nil {
			if !send(Message{Type: "error", Error: "bad message: " + err.Error()}) {
				return
			}
			continue
		}
		switch m.Type {
		case "medquery":
			var cond algebra.Expr
			var err error
			if len(m.Specs) != 1 {
				err = fmt.Errorf("medquery needs exactly one spec")
			} else {
				cond, err = m.Specs[0].Cond.Decode()
			}
			if err != nil {
				if !send(Message{Type: "error", ID: m.ID, Error: err.Error()}) {
					return
				}
				continue
			}
			opts := core.QueryOptions{MaxStaleness: m.MaxStale}
			if m.Degrade == "stale" {
				opts.Degrade = core.ServeStale
			}
			res, err := s.med.QueryOpts(m.Specs[0].Rel, m.Specs[0].Attrs, cond, opts)
			if err != nil {
				if !send(Message{Type: "error", ID: m.ID, Error: err.Error()}) {
					return
				}
				continue
			}
			if !send(Message{Type: "answer", ID: m.ID, AsOf: res.Committed,
				Answers:  []Relation{EncodeRelation(res.Answer)},
				Version:  res.Version,
				Degraded: res.Degraded, Staleness: res.Staleness}) {
				return
			}
		case "medversion":
			if !send(Message{Type: "answer", ID: m.ID, Version: s.med.StoreVersion()}) {
				return
			}
		case "medstats":
			st := s.med.Stats()
			if !send(Message{Type: "answer", ID: m.ID, Stats: &st}) {
				return
			}
		case "medmetrics":
			snap := s.med.MetricsSnapshot()
			if !send(Message{Type: "answer", ID: m.ID, Metrics: &snap}) {
				return
			}
		case "medevents":
			n := m.Limit
			if n <= 0 {
				n = 100
			}
			evs, total := s.med.Metrics().Events().Recent(n)
			if !send(Message{Type: "answer", ID: m.ID, Events: evs, EventsTotal: total}) {
				return
			}
		case "readvise":
			dec, err := s.adaptController().Readvise(m.DryRun)
			if err != nil {
				if !send(Message{Type: "error", ID: m.ID, Error: err.Error()}) {
					return
				}
				continue
			}
			if !send(Message{Type: "answer", ID: m.ID, Advice: dec}) {
				return
			}
		case "subscribe":
			sub, err := s.med.Subscribe(m.Export, core.SubscribeOptions{
				FromVersion: m.FromVersion, MaxQueue: m.MaxQueue, MaxLag: m.MaxLag})
			if err != nil {
				if !send(Message{Type: "error", ID: m.ID, Error: err.Error()}) {
					return
				}
				continue
			}
			if old := subs[m.Export]; old != nil {
				old.Close()
			}
			subs[m.Export] = sub
			if !send(Message{Type: "answer", ID: m.ID, Export: m.Export,
				Version: s.med.StoreVersion()}) {
				return
			}
			pumps.Add(1)
			go func(export string, sub *core.Subscription) {
				defer pumps.Done()
				for {
					f, err := sub.Recv()
					if err != nil {
						if err != core.ErrSubscriptionClosed {
							// A registry-side failure (barrier on a plan that
							// dropped the export): surface it on the stream.
							send(Message{Type: "error", Export: export, Error: err.Error()})
						}
						return
					}
					if !send(EncodeSubFrame(f)) {
						sub.Close()
						return
					}
				}
			}(m.Export, sub)
		case "unsubscribe":
			if sub := subs[m.Export]; sub != nil {
				sub.Close()
				delete(subs, m.Export)
			}
			if !send(Message{Type: "answer", ID: m.ID, Export: m.Export}) {
				return
			}
		case "sync":
			// Drain the update queue on request (a remote Flush).
			var flushed int
			var err error
			for {
				var ran bool
				ran, err = s.med.RunUpdateTransaction()
				if err != nil || !ran {
					break
				}
				flushed++
			}
			if err != nil {
				if !send(Message{Type: "error", ID: m.ID, Error: err.Error()}) {
					return
				}
				continue
			}
			if !send(Message{Type: "answer", ID: m.ID, AsOf: clock.Time(flushed)}) {
				return
			}
		default:
			if !send(Message{Type: "error", ID: m.ID, Error: "unknown message type " + m.Type}) {
				return
			}
		}
	}
}

// Close stops the listener, drops every connection (ending their
// subscription streams), and waits for in-flight handlers.
func (s *MediatorServer) Close() error {
	s.mu.Lock()
	ln := s.ln
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// MediatorClient is an application-side connection to a MediatorServer.
type MediatorClient struct {
	conn    net.Conn
	writer  *bufio.Writer
	scanner *bufio.Scanner
	mu      sync.Mutex
	nextID  uint64
}

// DialMediator connects to a mediator server and consumes its hello.
func DialMediator(addr string) (*MediatorClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &MediatorClient{
		conn:    conn,
		writer:  bufio.NewWriter(conn),
		scanner: bufio.NewScanner(conn),
	}
	c.scanner.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	m, err := c.read()
	if err != nil || m.Type != "hello" {
		conn.Close()
		return nil, fmt.Errorf("wire: mediator handshake failed: %v", err)
	}
	return c, nil
}

func (c *MediatorClient) read() (Message, error) {
	if !c.scanner.Scan() {
		if err := c.scanner.Err(); err != nil {
			return Message{}, err
		}
		return Message{}, fmt.Errorf("wire: connection closed")
	}
	var m Message
	if err := json.Unmarshal(c.scanner.Bytes(), &m); err != nil {
		return Message{}, err
	}
	return m, nil
}

func (c *MediatorClient) roundTrip(m Message) (Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	m.ID = c.nextID
	b, err := encode(m)
	if err != nil {
		return Message{}, err
	}
	if _, err := c.writer.Write(b); err != nil {
		return Message{}, err
	}
	if err := c.writer.Flush(); err != nil {
		return Message{}, err
	}
	reply, err := c.read()
	if err != nil {
		return Message{}, err
	}
	if reply.Type == "error" {
		return Message{}, fmt.Errorf("wire: mediator error: %s", reply.Error)
	}
	return reply, nil
}

// medQuery sends m as a medquery for π_attrs σ_cond (export) and decodes
// the single answer.
func (c *MediatorClient) medQuery(m Message, export string, attrs []string, cond algebra.Expr) (Message, *relation.Relation, error) {
	wc, err := EncodeExpr(cond)
	if err != nil {
		return Message{}, nil, err
	}
	m.Type = "medquery"
	m.Specs = []QuerySpec{{Rel: export, Attrs: attrs, Cond: wc}}
	reply, err := c.roundTrip(m)
	if err != nil {
		return Message{}, nil, err
	}
	if len(reply.Answers) != 1 {
		return Message{}, nil, fmt.Errorf("wire: expected one answer, got %d", len(reply.Answers))
	}
	ans, err := reply.Answers[0].Decode()
	if err != nil {
		return Message{}, nil, err
	}
	return reply, ans, nil
}

// Query answers π_attrs σ_cond (export) remotely; the returned time is
// the query transaction's commit time at the mediator.
func (c *MediatorClient) Query(export string, attrs []string, cond algebra.Expr) (*relation.Relation, clock.Time, error) {
	reply, ans, err := c.medQuery(Message{}, export, attrs, cond)
	if err != nil {
		return nil, 0, err
	}
	return ans, reply.AsOf, nil
}

// QueryVersioned is Query plus the published store version the answer was
// computed against.
func (c *MediatorClient) QueryVersioned(export string, attrs []string, cond algebra.Expr) (*relation.Relation, clock.Time, uint64, error) {
	reply, ans, err := c.medQuery(Message{}, export, attrs, cond)
	if err != nil {
		return nil, 0, 0, err
	}
	return ans, reply.AsOf, reply.Version, nil
}

// QueryStale is Query under the ServeStale degradation policy: if a
// polled source is down, the mediator may answer from cached data, and
// the returned vector carries the per-source staleness bounds (nil when
// nothing was degraded). maxStale > 0 refuses answers staler than that
// bound (Theorem 7.2's f̄ as a client-side contract); 0 accepts any age.
func (c *MediatorClient) QueryStale(export string, attrs []string, cond algebra.Expr, maxStale clock.Time) (*relation.Relation, clock.Time, clock.Vector, error) {
	reply, ans, err := c.medQuery(Message{Degrade: "stale", MaxStale: maxStale}, export, attrs, cond)
	if err != nil {
		return nil, 0, nil, err
	}
	return ans, reply.AsOf, reply.Staleness, nil
}

// Stats fetches the mediator's operation counters and per-source health.
func (c *MediatorClient) Stats() (*StatsPayload, error) {
	reply, err := c.roundTrip(Message{Type: "medstats"})
	if err != nil {
		return nil, err
	}
	if reply.Stats == nil {
		return nil, fmt.Errorf("wire: stats reply without payload")
	}
	return reply.Stats, nil
}

// Metrics fetches a full snapshot of the mediator's instruments (latency
// histograms, counters, gauges) and its retained events.
func (c *MediatorClient) Metrics() (*metrics.Snapshot, error) {
	reply, err := c.roundTrip(Message{Type: "medmetrics"})
	if err != nil {
		return nil, err
	}
	if reply.Metrics == nil {
		return nil, fmt.Errorf("wire: metrics reply without payload")
	}
	return reply.Metrics, nil
}

// Events fetches up to n recent structured events (oldest first; n <= 0
// uses the server default) plus the total number ever emitted.
func (c *MediatorClient) Events(n int) ([]metrics.Event, uint64, error) {
	reply, err := c.roundTrip(Message{Type: "medevents", Limit: n})
	if err != nil {
		return nil, 0, err
	}
	return reply.Events, reply.EventsTotal, nil
}

// Readvise asks the mediator's adaptive-annotation advisor for one
// on-demand decision round (§5.3): it observes the workload window since
// the last round and either applies the advised re-annotation immediately
// (bypassing the controller's hysteresis and cooldown) or, with dryRun,
// only reports what it would change. The returned decision carries the
// observed profile, the proposed or applied flips, and the advisor's
// justifications.
func (c *MediatorClient) Readvise(dryRun bool) (*AdvicePayload, error) {
	reply, err := c.roundTrip(Message{Type: "readvise", DryRun: dryRun})
	if err != nil {
		return nil, err
	}
	if reply.Advice == nil {
		return nil, fmt.Errorf("wire: readvise reply without payload")
	}
	return reply.Advice, nil
}

// StoreVersion returns the mediator's currently published store version.
func (c *MediatorClient) StoreVersion() (uint64, error) {
	reply, err := c.roundTrip(Message{Type: "medversion"})
	if err != nil {
		return 0, err
	}
	return reply.Version, nil
}

// Sync asks the mediator to drain its update queue, returning how many
// update transactions ran.
func (c *MediatorClient) Sync() (int, error) {
	reply, err := c.roundTrip(Message{Type: "sync"})
	if err != nil {
		return 0, err
	}
	return int(reply.AsOf), nil
}

// Close tears down the connection.
func (c *MediatorClient) Close() error { return c.conn.Close() }
