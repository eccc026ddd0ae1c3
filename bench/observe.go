package main

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"squirrel/internal/source"
	"squirrel/internal/wire"
)

// observers are the harness's own peers of the program: one more
// announcement listener on every leaf source server and one more subscriber
// on the mediator server. They receive what the program's own peers receive,
// so the bytes on their connections divided by the messages they were handed
// is the size of an announcement and of a frame on the wire, whatever the
// wire format is. (The mediator's own source connections carry poll answers
// too, so their bytes say nothing about announcements.) Each costs its server
// a second encoding of every message, so a traced run keeps them connected
// during warm-up only, which carries the same traffic as the windows.
type observers struct {
	listeners []*wire.Client
	ann       [2]msgCounter

	proxy   *byteProxy
	sub     *wire.SubClient
	subDone chan struct{}
	frame   msgCounter
}

// msgCounter counts the bytes read from one connection and the messages
// handed over from it. A reading is taken only as a message is handed over:
// the bytes read by then are those of the messages so far, unless the next
// message arrived in the same read, which at these rates it does not.
type msgCounter struct {
	read atomic.Int64 // bytes read from the connection
	base int64        // bytes read before the first counted message: the handshake

	mu    sync.Mutex
	msgs  int64
	bytes int64 // bytes read, less base, as the latest message was handed over
}

func (c *msgCounter) message() {
	c.mu.Lock()
	c.msgs++
	c.bytes = c.read.Load() - c.base
	c.mu.Unlock()
}

func (c *msgCounter) totals() (msgs, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs, c.bytes
}

// countingConn counts the bytes read from a connection; it goes in through
// wire.DialOptions.WrapConn.
type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// startObservers connects the observers. The pipeline must be idle, so that
// what each has read when this returns is its handshake and nothing else.
func (p *pipeline) startObservers() error {
	o := &observers{subDone: make(chan struct{})}
	p.obs = o
	for i, addr := range p.leafAddrs {
		count := &o.ann[i]
		c, err := wire.DialWith(addr, wire.DialOptions{
			WrapConn: func(conn net.Conn) net.Conn { return countingConn{conn, &count.read} }})
		if err != nil {
			return err
		}
		count.base = count.read.Load()
		c.OnAnnounce(func(source.Announcement) { count.message() })
		o.listeners = append(o.listeners, c)
	}
	// wire.SubClient dials for itself and has no WrapConn, so its bytes are
	// counted by a forwarder in front of the mediator server.
	var err error
	if o.proxy, err = startByteProxy(p.medAddr, &o.frame.read); err != nil {
		return err
	}
	if o.sub, err = wire.SubscribeView(o.proxy.ln.Addr().String(), p.w.SubExport, wire.SubOptions{}); err != nil {
		return err
	}
	if _, err = o.sub.Next(); err != nil { // the initial snapshot
		o.sub.Close()
		o.sub = nil
		return err
	}
	o.frame.base = o.frame.read.Load()
	go func() {
		defer close(o.subDone)
		for {
			if _, err := o.sub.Next(); err != nil {
				return
			}
			o.frame.message()
		}
	}()
	return nil
}

// observed is what the observers counted while they were connected.
type observed struct {
	anns, annBytes     int64
	frames, frameBytes int64
}

// stopObservers disconnects the observers and returns their counts.
func (p *pipeline) stopObservers() (observed, error) {
	o := p.obs
	p.obs = nil
	var seen observed
	var errs []error
	if o.sub != nil {
		errs = append(errs, o.sub.Close())
		<-o.subDone
		seen.frames, seen.frameBytes = o.frame.totals()
	}
	if o.proxy != nil {
		o.proxy.close()
	}
	for i, c := range o.listeners {
		errs = append(errs, c.Close())
		msgs, bytes := o.ann[i].totals()
		seen.anns += msgs
		seen.annBytes += bytes
	}
	return seen, errors.Join(errs...)
}

// byteProxy forwards every connection it accepts to upstream and counts the
// bytes that come back.
type byteProxy struct {
	ln       net.Listener
	upstream string
	down     *atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	done  sync.WaitGroup
}

func startByteProxy(upstream string, down *atomic.Int64) (*byteProxy, error) {
	ln, err := net.Listen("tcp", loopback)
	if err != nil {
		return nil, err
	}
	x := &byteProxy{ln: ln, upstream: upstream, down: down}
	x.done.Add(1)
	go func() {
		defer x.done.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", upstream)
			if err != nil {
				client.Close()
				continue
			}
			x.mu.Lock()
			x.conns = append(x.conns, client, server)
			x.mu.Unlock()
			x.done.Add(2)
			go x.forward(server, client)
			go x.forward(client, countingConn{server, down})
		}
	}()
	return x, nil
}

// forward copies from → to until either side ends, then closes both so the
// opposite direction ends too. The reader is hidden behind a plain io.Reader
// because io.Copy between two TCP connections splices through a pipe that
// the runtime pools, and the leak check would find that pipe open.
func (x *byteProxy) forward(to net.Conn, from net.Conn) {
	defer x.done.Done()
	io.Copy(to, struct{ io.Reader }{from}) //nolint:errcheck // the stream ends when a side closes
	to.Close()
	from.Close()
}

func (x *byteProxy) close() {
	x.ln.Close()
	x.mu.Lock()
	for _, c := range x.conns {
		c.Close()
	}
	x.mu.Unlock()
	x.done.Wait()
}
