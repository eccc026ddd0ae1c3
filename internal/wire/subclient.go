package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
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
	// done is closed by Close; it unblocks the read loop's hand-off and
	// backoff sleeps, and any Next waiting on an idle stream.
	done chan struct{}

	mu        sync.Mutex
	conn      net.Conn
	delivered uint64 // resume cursor: highest version handed off
	resumes   int
	closed    bool
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
		addr: addr, export: export, opts: opts,
		frames: make(chan core.SubFrame, 8),
		done:   make(chan struct{}),
	}
	c.delivered = opts.FromVersion
	scanner, err := c.connect(opts.FromVersion)
	if err != nil {
		return nil, err
	}
	go c.readLoop(scanner)
	return c, nil
}

// connect dials, consumes the hello, and performs the subscribe handshake
// resuming after version from. On success the returned scanner is
// positioned at the first frame.
func (c *SubClient) connect(from uint64) (*bufio.Scanner, error) {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	read := func() (Message, error) {
		if !scanner.Scan() {
			if err := scanner.Err(); err != nil {
				return Message{}, err
			}
			return Message{}, fmt.Errorf("wire: connection closed")
		}
		var m Message
		if err := json.Unmarshal(scanner.Bytes(), &m); err != nil {
			return Message{}, err
		}
		return m, nil
	}
	if err := checkHello(read()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: mediator handshake failed: %v", err)
	}
	req := Message{Type: "subscribe", ID: 1, Export: c.export,
		FromVersion: from, MaxQueue: c.opts.MaxQueue, MaxLag: c.opts.MaxLag}
	b, err := encode(req)
	if err != nil {
		conn.Close()
		return nil, err
	}
	w := bufio.NewWriter(conn)
	if _, err := w.Write(b); err != nil {
		conn.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := read()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if reply.Type == "error" {
		conn.Close()
		return nil, fmt.Errorf("wire: subscribe rejected: %s", reply.Error)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("wire: subscription client closed")
	}
	c.conn = conn
	c.mu.Unlock()
	return scanner, nil
}

// readLoop is the connection owner: it decodes frames, advances the
// resume cursor, hands frames to Next, and redials on transport errors
// (when Reconnect is set). It exits on Close or a terminal error, closing
// the frame channel on the terminal path.
func (c *SubClient) readLoop(scanner *bufio.Scanner) {
	for {
		if !scanner.Scan() {
			err := scanner.Err()
			if err == nil {
				err = fmt.Errorf("wire: connection closed")
			}
			ns, rerr := c.redialOr(err)
			if rerr != nil {
				c.fail(rerr)
				return
			}
			scanner = ns
			continue
		}
		var m Message
		if err := json.Unmarshal(scanner.Bytes(), &m); err != nil {
			// A corrupt line means the framing is gone: the rest of the
			// stream cannot be trusted, so treat it like a dropped
			// connection (the resubscribe replays anything torn off).
			c.dropConn()
			ns, rerr := c.redialOr(err)
			if rerr != nil {
				c.fail(rerr)
				return
			}
			scanner = ns
			continue
		}
		switch m.Type {
		case "frame":
			f, err := DecodeSubFrame(m)
			if err != nil {
				c.dropConn()
				ns, rerr := c.redialOr(err)
				if rerr != nil {
					c.fail(rerr)
					return
				}
				scanner = ns
				continue
			}
			// Advance the resume cursor atomically with the hand-off:
			// the cursor must cover this frame BEFORE the loop can
			// possibly redial (it redials only after returning here), or
			// a drop between hand-off and advancement would resubscribe
			// below a frame the consumer already has — and the replay
			// would deliver that version twice.
			c.mu.Lock()
			c.delivered = f.Version
			c.mu.Unlock()
			select {
			case c.frames <- f:
			case <-c.done:
				return
			}
		case "error":
			c.fail(fmt.Errorf("wire: subscription error: %s", m.Error))
			return
		default:
			// Stray replies (e.g. the unsubscribe ack) are not frames.
		}
	}
}

// redialOr handles a transport error: terminal when Reconnect is off,
// otherwise it redials with capped backoff and resubscribes after the
// resume cursor, returning the new connection's scanner.
func (c *SubClient) redialOr(cause error) (*bufio.Scanner, error) {
	if !c.opts.Reconnect {
		return nil, cause
	}
	delay := c.opts.RetryBase
	for {
		c.mu.Lock()
		closed := c.closed
		from := c.delivered
		c.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("wire: subscription client closed")
		}
		scanner, err := c.connect(from)
		if err == nil {
			c.mu.Lock()
			c.resumes++
			c.mu.Unlock()
			return scanner, nil
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("wire: subscription client closed")
		case <-time.After(delay):
		}
		if delay *= 2; delay > c.opts.RetryMax {
			delay = c.opts.RetryMax
		}
	}
}

// dropConn closes the current connection (the read loop's way of
// abandoning a stream whose framing it no longer trusts).
func (c *SubClient) dropConn() {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// fail records the terminal error and closes the frame channel. Called
// only by the read loop, exactly once, as it exits.
func (c *SubClient) fail(err error) {
	c.mu.Lock()
	if c.termErr == nil {
		c.termErr = err
	}
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
			return core.SubFrame{}, c.terminalErr()
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
		return core.SubFrame{}, fmt.Errorf("wire: subscription client closed")
	}
}

func (c *SubClient) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.termErr != nil {
		return c.termErr
	}
	return fmt.Errorf("wire: subscription stream ended")
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

// Close tears the stream down; a blocked Next returns with an error, and
// the read loop exits. Safe to call from any goroutine, more than once.
func (c *SubClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	close(c.done)
	if conn != nil {
		return conn.Close()
	}
	return nil
}
