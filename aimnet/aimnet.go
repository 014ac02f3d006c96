// Package aimnet is the Go client for aimserver. It speaks the
// netproto frame protocol: handshake, script execution, one-statement
// row streaming with credit-based flow control, prepared statements
// addressed by server-side id, and typed errors that round-trip the
// engine's sentinels — errors.Is(err, aim.ErrWriteConflict),
// errors.Is(err, netproto.ErrOverloaded) and friends work on a client
// error exactly as they do in-process.
//
// A Conn is one session: one transaction, one in-flight request at a
// time (concurrent callers serialize on an internal mutex, like a
// single database/sql connection). Statement cancellation rides the
// request's context: when it fires mid-request the client sends a
// Cancel frame and the server answers with a canceled error.
//
// When the server sheds work under overload it attaches a retry-after
// hint; Dial and every statement entry point honor it with jittered
// exponential backoff up to Options.MaxRetries before giving up —
// sheds are safe to retry because a shed statement never started.
package aimnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/netproto"
)

// Options tune a client connection. The zero value works.
type Options struct {
	// Client is the name sent in the handshake (diagnostics).
	Client string
	// DialTimeout bounds the TCP connect + handshake (default 5s).
	DialTimeout time.Duration
	// Window is the row-stream credit window: how many rows the server
	// may send ahead of consumption (default 128).
	Window uint32
	// MaxRetries bounds the jittered-backoff retries when the server
	// sheds a connection or statement with an overload error
	// (default 4; negative disables retry).
	MaxRetries int
}

func (o Options) withDefaults() Options {
	if o.Client == "" {
		o.Client = "aimnet"
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.Window == 0 {
		o.Window = 128
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	return o
}

// Conn is one client session on an aimserver.
type Conn struct {
	opts Options

	// mu serializes requests: the protocol is strictly
	// request-response per session.
	mu sync.Mutex
	// wmu serializes frame writes so a Cancel from the context watcher
	// never interleaves with a request write; wbuf, the frame being
	// written, is used under it.
	wmu  sync.Mutex
	wbuf []byte

	c         net.Conn
	fr        *netproto.FrameReader // payloads valid until the next read
	sessionID uint64
	txnOpen   bool
	closed    bool
}

// Dial connects and performs the handshake. A server that refuses the
// connection under overload is retried with jittered backoff honoring
// its retry-after hint, up to MaxRetries.
func Dial(addr string, opts Options) (*Conn, error) {
	opts = opts.withDefaults()
	var lastErr error
	for attempt := 0; ; attempt++ {
		c, err := dialOnce(addr, opts)
		if err == nil {
			return c, nil
		}
		lastErr = err
		hint, retriable := shedHint(err)
		if !retriable || attempt >= opts.MaxRetries {
			return nil, lastErr
		}
		time.Sleep(backoff(attempt, hint))
	}
}

func dialOnce(addr string, opts Options) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(opts.DialTimeout))
	c := &Conn{opts: opts, c: nc, fr: netproto.NewFrameReader(bufio.NewReader(nc))}
	hello := &netproto.Hello{Version: netproto.Version, Client: opts.Client}
	if err := netproto.WriteFrame(nc, netproto.TypeHello, hello.Encode()); err != nil {
		nc.Close()
		return nil, err
	}
	typ, payload, err := c.fr.Read()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("aimnet: handshake: %w", err)
	}
	switch typ {
	case netproto.TypeHelloOK:
		ok, err := netproto.DecodeHelloOK(payload)
		if err != nil {
			nc.Close()
			return nil, err
		}
		c.sessionID = ok.SessionID
		nc.SetDeadline(time.Time{})
		return c, nil
	case netproto.TypeError:
		m, derr := netproto.DecodeError(payload)
		nc.Close()
		if derr != nil {
			return nil, derr
		}
		return nil, m.DecodeWireError()
	default:
		nc.Close()
		return nil, fmt.Errorf("aimnet: unexpected handshake frame 0x%02x", typ)
	}
}

// shedHint reports whether err is a retriable overload shed and its
// backoff hint.
func shedHint(err error) (time.Duration, bool) {
	var se *netproto.ServerError
	if errors.As(err, &se) && se.Code == netproto.CodeOverloaded {
		return se.RetryAfter, true
	}
	return 0, false
}

// backoff computes jittered exponential backoff from the server's
// retry-after hint: uniformly random in [d/2, d] where d doubles per
// attempt, capped at one second.
func backoff(attempt int, hint time.Duration) time.Duration {
	if hint <= 0 {
		hint = 25 * time.Millisecond
	}
	d := hint << uint(attempt)
	if d > time.Second {
		d = time.Second
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// SessionID is the server-assigned session id (diagnostics).
func (c *Conn) SessionID() uint64 { return c.sessionID }

// TxnOpen reports whether the session has an open transaction, as of
// the last completed request.
func (c *Conn) TxnOpen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txnOpen
}

// Close says Goodbye and closes the connection. Idempotent.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.c.SetWriteDeadline(time.Now().Add(time.Second))
	c.writeFrame(netproto.TypeGoodbye, nil)
	return c.c.Close()
}

// writeFrame writes one frame in one socket write.
func (c *Conn) writeFrame(typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b, err := netproto.AppendFrame(c.wbuf[:0], typ, payload)
	if err != nil {
		return err
	}
	if cap(b) <= netproto.BufSize {
		c.wbuf = b
	}
	_, err = c.c.Write(b)
	return err
}

// watchCancel forwards a context cancellation as a Cancel frame while
// a request is in flight. The returned stop must be called when the
// request completes.
func (c *Conn) watchCancel(ctx context.Context) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	stopCh := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.writeFrame(netproto.TypeCancel, nil)
		case <-stopCh:
		}
	}()
	return func() { close(stopCh) }
}

// die marks the connection broken (I/O error mid-request: the stream
// position is unknown, so the session cannot be reused).
func (c *Conn) die(err error) error {
	if !c.closed {
		c.closed = true
		c.c.Close()
	}
	return err
}

func (c *Conn) checkOpen() error {
	if c.closed {
		return errors.New("aimnet: connection closed")
	}
	return nil
}

// Result is one statement's materialized outcome.
type Result = netproto.Result

// Exec runs a script of semicolon-separated statements with
// materialized results. BEGIN/COMMIT/ROLLBACK inside the script
// manage the session transaction. Overload sheds are retried with
// backoff; other errors are returned typed.
func (c *Conn) Exec(ctx context.Context, script string) ([]Result, error) {
	var out []Result
	err := c.withRetry(ctx, func() error {
		var err error
		out, err = c.execOnce(ctx, script)
		return err
	})
	return out, err
}

func (c *Conn) execOnce(ctx context.Context, script string) ([]Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkOpen(); err != nil {
		return nil, err
	}
	stop := c.watchCancel(ctx)
	defer stop()
	m := &netproto.Exec{Script: script}
	if err := c.writeFrame(netproto.TypeExec, m.Encode()); err != nil {
		return nil, c.die(err)
	}
	typ, payload, err := c.fr.Read()
	if err != nil {
		return nil, c.die(err)
	}
	switch typ {
	case netproto.TypeResults:
		res, err := netproto.DecodeResults(payload)
		if err != nil {
			return nil, c.die(err)
		}
		c.txnOpen = res.TxnOpen
		return res.Results, nil
	case netproto.TypeError:
		return nil, c.serverErr(payload)
	default:
		return nil, c.die(fmt.Errorf("aimnet: unexpected frame 0x%02x", typ))
	}
}

// serverErr decodes an Error frame into the typed client error,
// tracking the transaction flag it carries.
func (c *Conn) serverErr(payload []byte) error {
	m, err := netproto.DecodeError(payload)
	if err != nil {
		return c.die(err)
	}
	c.txnOpen = m.TxnOpen
	return m.DecodeWireError()
}

// withRetry retries fn on overload sheds with jittered backoff.
func (c *Conn) withRetry(ctx context.Context, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		hint, retriable := shedHint(err)
		if !retriable || attempt >= c.opts.MaxRetries {
			return err
		}
		select {
		case <-time.After(backoff(attempt, hint)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Info fetches the server's counters (the wire form of
// aim.Stats().Net).
func (c *Conn) Info(ctx context.Context) (map[string]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkOpen(); err != nil {
		return nil, err
	}
	stop := c.watchCancel(ctx)
	defer stop()
	if err := c.writeFrame(netproto.TypeInfo, nil); err != nil {
		return nil, c.die(err)
	}
	typ, payload, err := c.fr.Read()
	if err != nil {
		return nil, c.die(err)
	}
	switch typ {
	case netproto.TypeInfoResp:
		m, err := netproto.DecodeInfoResp(payload)
		if err != nil {
			return nil, c.die(err)
		}
		out := make(map[string]int64, len(m.Fields))
		for _, f := range m.Fields {
			out[f.Key] = f.Val
		}
		return out, nil
	case netproto.TypeError:
		return nil, c.serverErr(payload)
	default:
		return nil, c.die(fmt.Errorf("aimnet: unexpected frame 0x%02x", typ))
	}
}

// Tuple is a row as streamed from the server.
type Tuple = model.Tuple

// Value is one NF² value: a prepared statement's arguments and a
// tuple's fields. The scalar kinds below convert plain Go values
// (aimnet.Int(7), aimnet.Str("x")); the model package is internal, so
// these aliases are the public way in.
type (
	Value = model.Value
	Int   = model.Int
	Float = model.Float
	Str   = model.Str
	Bool  = model.Bool
	Time  = model.Time
	Null  = model.Null
)
