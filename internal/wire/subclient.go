package wire

import (
	"fmt"
	"time"

	"squirrel/internal/clock"
	"squirrel/internal/core"
)

// SubOptions tunes a SubClient.
type SubOptions struct {
	// FromVersion resumes delivery after the given committed store version
	// (0 = start with a snapshot). On auto-reconnect the client always
	// resumes from its own resume cursor — the highest version committed
	// to the frame channel — so the stream stays duplicate- and gap-free
	// across outages without re-transferring state it already holds
	// (unless the server's resume ring no longer covers it, in which case
	// the server falls back to a snapshot frame).
	FromVersion uint64
	// MaxQueue and MaxLag are forwarded to core.SubscribeOptions on the
	// server (0 = server defaults / unbounded lag).
	MaxQueue int
	MaxLag   clock.Time
	// Reconnect enables automatic redial + resubscribe when the connection
	// drops. Without it, the first transport error is terminal: Next
	// returns it, and keeps returning it.
	Reconnect bool
	// RetryBase/RetryMax bound the reconnect backoff (defaults 50ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
}

// SubClient consumes one export's subscription stream from a
// MediatorServer over its own connection.
//
// Concurrency and resume contract: a single background read loop owns the
// connection — it decodes frames, advances the resume cursor, and hands
// each frame to Next through a channel. The cursor is advanced in the
// same critical section that commits the frame for hand-off, BEFORE the
// loop reads anything further from the connection; a redial therefore
// always resubscribes after the last frame the consumer can still
// observe, and the consumer never sees a version twice (see Next).
// Next must be called from one goroutine at a time; Close may be called
// from any goroutine, and unblocks a waiting Next.
type SubClient struct {
	addr   string
	export string
	opts   SubOptions

	// frames is the hand-off channel from the read loop to Next. It is
	// closed by the read loop (and only by it) when the stream ends
	// terminally, after termErr is set.
	frames chan core.SubFrame
	// link.done, closed by Close, also unblocks the read loop's hand-off
	// and any Next waiting on an idle stream.
	link
	delivered uint64 // resume cursor: highest version handed off
	resumes   int
	termErr   error
}

// SubscribeView connects to a mediator server and registers for export's
// delta stream. The first frame Next returns is a snapshot (or, with
// FromVersion set and the server's ring covering it, the deltas since).
func SubscribeView(addr, export string, opts SubOptions) (*SubClient, error) {
	if opts.RetryBase <= 0 {
		opts.RetryBase = 50 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 2 * time.Second
	}
	c := &SubClient{
		addr: addr, export: export, opts: opts, delivered: opts.FromVersion,
		frames: make(chan core.SubFrame, 8),
		link:   link{done: make(chan struct{})},
	}
	conn, err := c.connect(opts.FromVersion)
	if err != nil {
		return nil, err
	}
	go c.readLoop(conn)
	return c, nil
}

// connect dials, consumes the hello, and performs the subscribe handshake
// resuming after version from. On success the returned connection is
// positioned at the first frame.
func (c *SubClient) connect(from uint64) (*frameConn, error) {
	conn, _, err := dial(c.addr, nil, &c.link)
	if err != nil {
		return nil, err
	}
	reply, err := conn.call(Message{Type: "subscribe", ID: 1, Export: c.export,
		FromVersion: from, MaxQueue: c.opts.MaxQueue, MaxLag: c.opts.MaxLag})
	if err == nil && reply.Type == "error" {
		err = fmt.Errorf("wire: subscribe rejected: %s", reply.Error)
	}
	if err != nil {
		c.drop(conn)
		return nil, err
	}
	return conn, nil
}

// readLoop is the connection owner: it decodes frames, advances the
// resume cursor, hands frames to Next, and redials on transport errors
// (when Reconnect is set). It exits on Close or a terminal error, closing
// the frame channel on the terminal path.
func (c *SubClient) readLoop(conn *frameConn) {
	for {
		m, err := conn.read()
		switch {
		case err != nil:
			// A transport error, or a corrupt line: the framing is gone,
			// the rest of the stream cannot be trusted, and the
			// resubscribe replays anything torn off.
		case m.Type == "frame":
			var f core.SubFrame
			if f, err = DecodeSubFrame(m); err == nil {
				if !c.handOff(f) {
					return
				}
				continue
			}
		case m.Type == "error":
			c.fail(fmt.Errorf("wire: subscription error: %s", m.Error))
			return
		default:
			continue // stray replies (e.g. the unsubscribe ack) are not frames
		}
		c.drop(conn)
		if conn, err = c.redialOr(err); err != nil {
			c.fail(err)
			return
		}
	}
}

// handOff passes f to Next, reporting false if the client closed first.
// It advances the resume cursor atomically with the hand-off: the cursor
// must cover f BEFORE the read loop can possibly redial, or a drop
// between hand-off and advancement would resubscribe below a frame the
// consumer already has — and the replay would deliver that version twice.
func (c *SubClient) handOff(f core.SubFrame) bool {
	c.mu.Lock()
	c.delivered = f.Version
	c.mu.Unlock()
	select {
	case c.frames <- f:
		return true
	case <-c.done:
		return false
	}
}

// redialOr handles a transport error: terminal when Reconnect is off,
// otherwise it redials with capped backoff and resubscribes after the
// resume cursor, returning the new connection.
func (c *SubClient) redialOr(cause error) (*frameConn, error) {
	if !c.opts.Reconnect {
		return nil, cause
	}
	var conn *frameConn
	if !redial(c.opts.RetryBase, c.opts.RetryMax, c.done, func() (err error) {
		conn, err = c.connect(c.Delivered())
		return err
	}) {
		return nil, errClosed
	}
	c.mu.Lock()
	c.resumes++
	c.mu.Unlock()
	return conn, nil
}

// fail records the terminal error and closes the frame channel. Called
// only by the read loop, exactly once, as it exits.
func (c *SubClient) fail(err error) {
	c.mu.Lock()
	c.termErr = err
	c.mu.Unlock()
	close(c.frames)
}

// Next blocks for the next frame. Frames arrive in version order with no
// duplicates, across reconnects included; the caller applies delta frames
// to its copy of the export (or replaces it on a snapshot frame) to track
// the mediator's published state. Single-consumer: call Next from one
// goroutine at a time. After a terminal error (transport failure with
// Reconnect off, a server-side stream error, or Close), Next returns that
// error on every call.
func (c *SubClient) Next() (core.SubFrame, error) {
	select {
	case f, ok := <-c.frames:
		if !ok {
			c.mu.Lock()
			defer c.mu.Unlock()
			return core.SubFrame{}, c.termErr
		}
		return f, nil
	case <-c.done:
		// Prefer a frame that raced the close over the close itself.
		select {
		case f, ok := <-c.frames:
			if ok {
				return f, nil
			}
		default:
		}
		return core.SubFrame{}, errClosed
	}
}

// Delivered returns the resume cursor: the highest version the read loop
// has committed for hand-off (and therefore the version a reconnect
// resumes after). It may run ahead of the last frame returned by Next by
// at most the hand-off channel's capacity.
func (c *SubClient) Delivered() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}

// Resumes returns how many times the client reconnected and resubscribed.
func (c *SubClient) Resumes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumes
}
