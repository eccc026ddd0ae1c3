package wire

import (
	"fmt"
	"log"
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
	server
	med   *core.Mediator
	adapt *core.AdaptController // guarded by server.mu
}

// NewMediatorServer wraps a mediator.
func NewMediatorServer(med *core.Mediator) *MediatorServer {
	s := &MediatorServer{med: med}
	s.server = server{name: "mediator", open: s.open, logf: log.Printf,
		conns: make(map[*srvConn]struct{})}
	return s
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

// medConn is one connection's subscription state: its live subscriptions
// by export (touched only by the connection's read loop) and their pump
// goroutines, which exit when the subscription closes or the connection
// is dropped.
type medConn struct {
	*srvConn
	med   *core.Mediator
	subs  map[string]*core.Subscription
	pumps sync.WaitGroup
}

func (s *MediatorServer) open(c *srvConn) (map[string]handler, func()) {
	mc := &medConn{srvConn: c, med: s.med, subs: make(map[string]*core.Subscription)}
	return map[string]handler{
		"medquery": s.query,
		"medversion": func(Message) (Message, error) {
			return Message{Type: "answer", Version: s.med.StoreVersion()}, nil
		},
		"medstats": func(Message) (Message, error) {
			st := s.med.Stats()
			return Message{Type: "answer", Stats: &st}, nil
		},
		"medmetrics": func(Message) (Message, error) {
			snap := s.med.MetricsSnapshot()
			return Message{Type: "answer", Metrics: &snap}, nil
		},
		"medevents": func(m Message) (Message, error) {
			n := m.Limit
			if n <= 0 {
				n = 100
			}
			evs, total := s.med.Metrics().Events().Recent(n)
			return Message{Type: "answer", Events: evs, EventsTotal: total}, nil
		},
		"readvise": func(m Message) (Message, error) {
			dec, err := s.adaptController().Readvise(m.DryRun)
			return Message{Type: "answer", Advice: dec}, err
		},
		"subscribe":   mc.subscribe,
		"unsubscribe": mc.unsubscribe,
		"sync":        s.sync,
	}, mc.end
}

func (s *MediatorServer) query(m Message) (Message, error) {
	if len(m.Specs) != 1 {
		return Message{}, fmt.Errorf("medquery needs exactly one spec")
	}
	cond, err := m.Specs[0].Cond.Decode()
	if err != nil {
		return Message{}, err
	}
	opts := core.QueryOptions{MaxStaleness: m.MaxStale}
	if m.Degrade == "stale" {
		opts.Degrade = core.ServeStale
	}
	res, err := s.med.Query(algebra.SelectFrom(m.Specs[0].Rel, m.Specs[0].Attrs, cond), opts)
	if err != nil {
		return Message{}, err
	}
	return Message{Type: "answer", AsOf: res.Committed,
		Answers:  []Relation{EncodeRelation(res.Answer)},
		Version:  res.Version,
		Degraded: res.Degraded, Staleness: res.Staleness}, nil
}

// sync drains the update queue on request (a remote Flush).
func (s *MediatorServer) sync(Message) (Message, error) {
	flushed := 0
	for {
		ran, err := s.med.RunUpdateTransaction()
		if err != nil {
			return Message{}, err
		}
		if !ran {
			return Message{Type: "answer", AsOf: clock.Time(flushed)}, nil
		}
		flushed++
	}
}

func (c *medConn) subscribe(m Message) (Message, error) {
	sub, err := c.med.Subscribe(m.Export, core.SubscribeOptions{
		FromVersion: m.FromVersion, MaxQueue: m.MaxQueue, MaxLag: m.MaxLag})
	if err != nil {
		return Message{}, err
	}
	if old := c.subs[m.Export]; old != nil {
		old.Close()
	}
	c.subs[m.Export] = sub
	// The reply goes out before the pump can queue the stream's first frame.
	c.send(Message{Type: "answer", ID: m.ID, Export: m.Export, Version: c.med.StoreVersion()})
	c.pumps.Add(1)
	go c.pump(m.Export, sub)
	return Message{}, nil
}

func (c *medConn) pump(export string, sub *core.Subscription) {
	defer c.pumps.Done()
	for {
		f, err := sub.Recv()
		if err != nil {
			if err != core.ErrSubscriptionClosed {
				// A registry-side failure (barrier on a plan that
				// dropped the export): surface it on the stream.
				c.send(Message{Type: "error", Export: export, Error: err.Error()})
			}
			return
		}
		if !c.send(EncodeSubFrame(f)) {
			return
		}
	}
}

func (c *medConn) unsubscribe(m Message) (Message, error) {
	if sub := c.subs[m.Export]; sub != nil {
		sub.Close()
		delete(c.subs, m.Export)
	}
	return Message{Type: "answer", Export: m.Export}, nil
}

// end closes the connection's subscriptions and waits for their pumps.
func (c *medConn) end() {
	for _, sub := range c.subs {
		sub.Close()
	}
	c.pumps.Wait()
}

// MediatorClient is an application-side connection to a MediatorServer.
// It has one request in flight at a time and reads each reply on the
// caller's goroutine.
type MediatorClient struct {
	link
	reqMu  sync.Mutex // held for a whole round trip
	nextID uint64
}

// DialMediator connects to a mediator server and consumes its hello.
func DialMediator(addr string) (*MediatorClient, error) {
	c := &MediatorClient{link: link{done: make(chan struct{})}}
	if _, _, err := dial(addr, nil, &c.link); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *MediatorClient) roundTrip(m Message) (Message, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	c.nextID++
	m.ID = c.nextID
	reply, err := c.conn.call(m)
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
	ans, asOf, _, err := c.QueryVersioned(export, attrs, cond)
	return ans, asOf, err
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
