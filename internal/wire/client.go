package wire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/relation"
	"squirrel/internal/source"
)

// DialOptions tune a source-client connection.
type DialOptions struct {
	// Reconnect redials automatically (with capped backoff) whenever the
	// read loop exits on a broken connection. The server re-subscribes the
	// new connection to the announcement feed; announcements committed
	// during the outage are LOST, which is exactly what the mediator's
	// sequence-gap detection + quarantine + resync exists to absorb — wire
	// OnReconnect to Mediator.QuarantineSource so the resync is proactive
	// rather than waiting for the next gap-revealing announcement.
	Reconnect bool
	// RetryBase/RetryMax bound the redial backoff (defaults 100ms / 5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Timeout bounds each request round trip (0 = wait forever).
	Timeout time.Duration
	// WrapConn, if non-nil, wraps every new connection — the hook for
	// resilience.WrapNetConn fault injection.
	WrapConn func(net.Conn) net.Conn
	// OnReconnect runs after each successful redial + hello.
	OnReconnect func()
}

// Client connects a mediator to a remote source database served by
// SourceServer. It implements core.SourceConn; announcements received on
// the connection are forwarded, in order, to the handler registered with
// OnAnnounce — and, crucially, before any query answer that follows them
// on the wire, preserving the FIFO contract.
type Client struct {
	addr string
	opts DialOptions

	// Timeout bounds each request round trip (0 = wait forever). Set it
	// before issuing requests; a timed-out request leaves the connection
	// usable (the stale reply is discarded when it arrives).
	Timeout time.Duration

	// wmu serializes requests' writes to the connection.
	wmu sync.Mutex

	link
	name    string
	nextID  uint64
	waiters map[uint64]chan Message
	handler source.Handler
	// ready gates roundTrip: it is false from the moment a connection is
	// lost until the replacement is fully adopted — redialed, hello'd,
	// AND OnReconnect has returned. Without the gate, a request could
	// race the redial and return an answer reflecting commits whose
	// announcements were lost in the outage BEFORE OnReconnect
	// (typically Mediator.QuarantineSource) has marked the stream
	// untrusted — violating the announcement-before-answer FIFO contract
	// the Eager Compensation Algorithm needs. Requests issued while not
	// ready fail fast, exactly like requests issued while disconnected.
	ready bool
}

// Dial connects to a source server and waits for its hello.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith connects with explicit options.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 5 * time.Second
	}
	c := &Client{
		addr:    addr,
		opts:    opts,
		Timeout: opts.Timeout,
		link:    link{done: make(chan struct{})},
		waiters: make(map[uint64]chan Message),
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	// The initial dial has no reconnect window to order against: the
	// connection is ready as soon as the hello resolves.
	c.mu.Lock()
	c.ready = true
	c.mu.Unlock()
	return c, nil
}

// connect dials, installs the new connection, and checks the server's
// hello. On success the read loop is running against the new connection.
func (c *Client) connect() error {
	conn, hello, err := dial(c.addr, c.opts.WrapConn, &c.link)
	if err != nil {
		return err
	}
	c.mu.Lock()
	name := c.name
	if name == "" {
		c.name = hello.Name
	}
	c.mu.Unlock()
	if name != "" && name != hello.Name {
		c.drop(conn)
		return fmt.Errorf("wire: reconnected to %q, expected %q", hello.Name, name)
	}
	go c.readLoop(conn)
	return nil
}

// Name returns the remote source database's name (core.SourceConn).
func (c *Client) Name() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.name
}

// OnAnnounce registers the announcement handler (call before the first
// commit you care about; typically wired to Mediator.OnAnnouncement before
// Initialize). The handler survives reconnects: the server re-subscribes
// every new connection to its announcement feed.
func (c *Client) OnAnnounce(h source.Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handler = h
}

func (c *Client) readLoop(conn *frameConn) {
	for {
		m, err := conn.read()
		if _, bad := err.(badLine); bad {
			continue // tolerate garbage lines
		}
		if err != nil {
			break
		}
		switch m.Type {
		case "announce":
			c.mu.Lock()
			h := c.handler
			c.mu.Unlock()
			if h == nil {
				break
			}
			a := source.Announcement{
				Source: m.Source, Time: m.Time,
				Seq: m.Seq, FirstSeq: m.FirstSeq,
				Reflect: m.Reflect, Barrier: m.Barrier,
			}
			if m.Delta != nil {
				dd, err := m.Delta.Decode()
				if err != nil {
					break
				}
				a.Delta = dd
			} else if m.Barrier == "" {
				// Neither delta nor barrier: malformed, drop it. The
				// consuming mediator's gap detection catches the hole if
				// the sender numbered it.
				break
			}
			// Synchronous, in receive order: FIFO preserved. Barrier
			// announcements (delta-less, from a federated tier) pass
			// through like any other — OnAnnouncement quarantines on them.
			h(a)
		case "answer", "error":
			c.mu.Lock()
			ch := c.waiters[m.ID]
			delete(c.waiters, m.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		}
	}
	// Connection gone: fail every in-flight round trip, then (optionally)
	// redial in the background. Requests issued while disconnected fail on
	// write; the announcement handler stays registered for the new
	// connection.
	c.mu.Lock()
	for id, ch := range c.waiters {
		if ch != nil {
			close(ch)
		}
		delete(c.waiters, id)
	}
	closed := c.closed
	stale := c.conn != conn // a newer connection already took over
	if !stale {
		// Gate requests until the reconnect protocol (redial + hello +
		// OnReconnect) has fully adopted a replacement connection.
		c.ready = false
	}
	c.mu.Unlock()
	if !closed && !stale && c.opts.Reconnect {
		go c.reconnectLoop()
	}
}

// reconnectLoop redials with capped exponential backoff until it succeeds
// or the client is closed.
func (c *Client) reconnectLoop() {
	if !redial(c.opts.RetryBase, c.opts.RetryMax, c.done, c.connect) {
		return
	}
	// OnReconnect must complete BEFORE requests may flow again: it is the
	// hook that accounts for announcements lost in the outage (quarantine
	// + resync), and an answer returned ahead of it could reflect commits
	// the mediator has not yet learned to distrust.
	if c.opts.OnReconnect != nil {
		c.opts.OnReconnect()
	}
	c.mu.Lock()
	c.ready = true
	c.mu.Unlock()
}

// roundTrip sends a request and waits for its matched reply. The waiter
// registered for the request is removed on EVERY exit path — encode
// error, write error, timeout, reply — so shutdown never finds (and
// closes) a channel its request already abandoned, and the map cannot
// accumulate dead entries.
func (c *Client) roundTrip(m Message) (Message, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Message{}, errClosed
	}
	if !c.ready {
		c.mu.Unlock()
		return Message{}, fmt.Errorf("wire: not connected (reconnect in progress)")
	}
	c.nextID++
	id := c.nextID
	ch := make(chan Message, 1)
	c.waiters[id] = ch
	conn := c.conn
	c.mu.Unlock()
	unregister := func() {
		c.mu.Lock()
		delete(c.waiters, id)
		c.mu.Unlock()
	}

	m.ID = id
	c.wmu.Lock()
	err := conn.write(m)
	c.wmu.Unlock()
	if err != nil {
		// A transport that really is broken shows on the read side, which
		// tears the connection down.
		unregister()
		return Message{}, err
	}
	var timeout <-chan time.Time
	if c.Timeout > 0 {
		timer := time.NewTimer(c.Timeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return Message{}, fmt.Errorf("wire: connection closed awaiting reply")
		}
		if reply.Type == "error" {
			return Message{}, fmt.Errorf("wire: remote error: %s", reply.Error)
		}
		return reply, nil
	case <-timeout:
		unregister()
		return Message{}, fmt.Errorf("wire: request %d timed out after %s", id, c.Timeout)
	}
}

// WaiterCount reports the number of registered reply waiters (tests).
func (c *Client) WaiterCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// QueryMulti implements core.SourceConn over the wire.
func (c *Client) QueryMulti(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, error) {
	out, asOf, _, err := c.QueryMultiBase(specs)
	return out, asOf, err
}

// QueryMultiBase is QueryMulti plus the answer's validity vector in
// base-source coordinates, when the remote backend reports one
// (TieredBackend on the server side — a mediator export face does, a
// plain source database returns nil). It implements core.TieredConn, so a
// mediator dialed into a downstream mediator composes Reflect vectors
// across the hop. Safe for concurrent use, like every request method.
func (c *Client) QueryMultiBase(specs []source.QuerySpec) ([]*relation.Relation, clock.Time, clock.Vector, error) {
	req := Message{Type: "query"}
	for _, s := range specs {
		ws, err := EncodeSpec(s)
		if err != nil {
			return nil, 0, nil, err
		}
		req.Specs = append(req.Specs, ws)
	}
	reply, err := c.roundTrip(req)
	if err != nil {
		return nil, 0, nil, err
	}
	if len(reply.Answers) != len(specs) {
		return nil, 0, nil, fmt.Errorf("wire: got %d answers for %d specs", len(reply.Answers), len(specs))
	}
	out := make([]*relation.Relation, len(reply.Answers))
	for i, wr := range reply.Answers {
		r, err := wr.Decode()
		if err != nil {
			return nil, 0, nil, err
		}
		out[i] = r
	}
	return out, reply.AsOf, reply.Reflect, nil
}

// Apply submits a transaction to the remote source (for loaders and
// drivers) and returns its commit time.
func (c *Client) Apply(d Delta) (clock.Time, error) {
	reply, err := c.roundTrip(Message{Type: "apply", Delta: &d})
	if err != nil {
		return 0, err
	}
	return reply.AsOf, nil
}

// Catalog fetches the source's relation schemas (for mediators assembled
// against remote sources without shared schema definitions).
func (c *Client) Catalog() ([]*relation.Schema, error) {
	reply, err := c.roundTrip(Message{Type: "catalog"})
	if err != nil {
		return nil, err
	}
	out := make([]*relation.Schema, 0, len(reply.Schemas))
	for _, ws := range reply.Schemas {
		s, err := ws.Decode()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
