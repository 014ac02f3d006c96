package aimnet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/netproto"
)

// Rows streams one SELECT's result. The connection stays dedicated to
// the stream until Close or exhaustion (Next returning false), exactly
// like an engine.Rows dedicates its cursor: iterate promptly, close
// always.
//
// Flow control is credit-based: the server may send at most Window
// rows ahead of what the client has consumed. Next grants more credit
// (a Fetch frame) whenever the remaining window falls to half, so a
// steadily-consuming client streams without stalls while a stalled
// client stalls the server after at most Window rows — bounded memory
// on both sides.
type Rows struct {
	c    *Conn
	ctx  context.Context
	stop func()
	typ  *model.TableType
	tup  model.Tuple
	// slab holds the atoms of the rows decoded since the last credit
	// grant. Its chunks are never reused, so a tuple Next returned stays
	// valid; a fresh slab per grant keeps what one retained tuple can
	// hold alive within a window's worth of rows.
	slab   model.Slab
	err    error
	done   bool
	closed bool
	n      uint64
	// remaining is the credit the server still holds.
	remaining uint32
	aborted   bool
	txnOpen   bool
}

// Query runs one SELECT and streams its rows. The returned Rows owns
// the connection until Close. Overload sheds are retried with backoff
// before the stream starts.
func (c *Conn) Query(ctx context.Context, sqlText string) (*Rows, error) {
	var r *Rows
	err := c.withRetry(ctx, func() error {
		var err error
		r, err = c.queryOnce(ctx, sqlText)
		return err
	})
	return r, err
}

func (c *Conn) queryOnce(ctx context.Context, sqlText string) (*Rows, error) {
	c.mu.Lock()
	if err := c.checkOpen(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	m := &netproto.Query{SQL: sqlText, Window: c.opts.Window}
	if err := c.writeFrame(netproto.TypeQuery, m.Encode()); err != nil {
		c.mu.Unlock()
		return nil, c.die(err)
	}
	return c.startStream(ctx)
}

// startStream reads the stream opening (RowHeader or Error) with c.mu
// held; on success the lock stays held by the returned Rows until its
// Close.
func (c *Conn) startStream(ctx context.Context) (*Rows, error) {
	stop := c.watchCancel(ctx)
	typ, payload, err := c.fr.Read()
	if err != nil {
		stop()
		c.mu.Unlock()
		return nil, c.die(err)
	}
	switch typ {
	case netproto.TypeRowHeader:
		h, err := netproto.DecodeRowHeader(payload)
		if err != nil {
			stop()
			c.mu.Unlock()
			return nil, c.die(err)
		}
		return &Rows{c: c, ctx: ctx, stop: stop, typ: h.Type, remaining: c.opts.Window}, nil
	case netproto.TypeError:
		stop()
		defer c.mu.Unlock()
		return nil, c.serverErr(payload)
	default:
		stop()
		c.mu.Unlock()
		return nil, c.die(fmt.Errorf("aimnet: unexpected frame 0x%02x", typ))
	}
}

// Type is the result schema.
func (r *Rows) Type() *model.TableType { return r.typ }

// Next advances to the next row, granting flow-control credit as the
// window drains. It returns false at end of stream or error; check
// Err.
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	// Top the window back up once half is consumed.
	if !r.aborted && r.remaining <= r.c.opts.Window/2 {
		grant := r.c.opts.Window - r.remaining
		if err := r.c.writeFrame(netproto.TypeFetch, (&netproto.Fetch{N: grant}).Encode()); err != nil {
			r.fail(r.c.die(err))
			return false
		}
		r.remaining += grant
		r.slab = model.Slab{}
	}
	typ, payload, err := r.c.fr.Read()
	if err != nil {
		r.fail(r.c.die(err))
		return false
	}
	switch typ {
	case netproto.TypeRow:
		tup, err := netproto.DecodeRowSlab(payload, &r.slab)
		if err != nil {
			r.fail(r.c.die(err))
			return false
		}
		r.tup = tup
		r.n++
		if r.remaining > 0 {
			r.remaining--
		}
		return true
	case netproto.TypeDone:
		m, err := netproto.DecodeDone(payload)
		if err != nil {
			r.fail(r.c.die(err))
			return false
		}
		r.finish(m.TxnOpen)
		return false
	case netproto.TypeError:
		r.fail(r.c.serverErr(payload))
		r.finish(r.c.txnOpen)
		return false
	default:
		r.fail(r.c.die(fmt.Errorf("aimnet: unexpected frame 0x%02x", typ)))
		return false
	}
}

func (r *Rows) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// finish ends the stream and releases the connection.
func (r *Rows) finish(txnOpen bool) {
	if r.done {
		return
	}
	r.done = true
	r.c.txnOpen = txnOpen
	r.stop()
	r.c.mu.Unlock()
}

// Tuple is the current row. The tuple and its values are the caller's
// to keep: they stay valid and unchanged after later Next calls and
// after Close.
func (r *Rows) Tuple() model.Tuple { return r.tup }

// Err reports the error that ended iteration, if any.
func (r *Rows) Err() error {
	if r.err != nil && errors.Is(r.err, context.Canceled) && r.ctx.Err() != nil {
		return r.ctx.Err()
	}
	return r.err
}

// N is the number of rows received so far.
func (r *Rows) N() uint64 { return r.n }

// Close abandons the stream: it tells the server to drop the cursor
// (StreamClose) and drains frames until the server confirms, then
// releases the connection. Idempotent; safe after exhaustion.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.done {
		return nil
	}
	r.aborted = true
	if err := r.c.writeFrame(netproto.TypeStreamClose, nil); err != nil {
		r.fail(r.c.die(err))
		r.finish(r.c.txnOpen)
		return nil
	}
	// Drain in-flight rows until the server's Done/Error.
	for !r.done {
		typ, payload, err := r.c.fr.Read()
		if err != nil {
			r.fail(r.c.die(err))
			r.finish(r.c.txnOpen)
			return nil
		}
		switch typ {
		case netproto.TypeRow:
			// discard
		case netproto.TypeDone:
			if m, err := netproto.DecodeDone(payload); err == nil {
				r.finish(m.TxnOpen)
			} else {
				r.fail(r.c.die(err))
				r.finish(r.c.txnOpen)
			}
		case netproto.TypeError:
			r.fail(r.c.serverErr(payload))
			r.finish(r.c.txnOpen)
		default:
			r.fail(r.c.die(fmt.Errorf("aimnet: unexpected frame 0x%02x", typ)))
			r.finish(r.c.txnOpen)
		}
	}
	return nil
}

// Stmt is a prepared statement held server-side, addressed by id.
type Stmt struct {
	c         *Conn
	id        uint64
	numParams int
	isSelect  bool
	text      string
	closed    bool
}

// Prepare parses and binds one statement server-side.
func (c *Conn) Prepare(ctx context.Context, sqlText string) (*Stmt, error) {
	var st *Stmt
	err := c.withRetry(ctx, func() error {
		var err error
		st, err = c.prepareOnce(ctx, sqlText)
		return err
	})
	return st, err
}

func (c *Conn) prepareOnce(ctx context.Context, sqlText string) (*Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkOpen(); err != nil {
		return nil, err
	}
	stop := c.watchCancel(ctx)
	defer stop()
	m := &netproto.Prepare{SQL: sqlText}
	if err := c.writeFrame(netproto.TypePrepare, m.Encode()); err != nil {
		return nil, c.die(err)
	}
	typ, payload, err := c.fr.Read()
	if err != nil {
		return nil, c.die(err)
	}
	switch typ {
	case netproto.TypePrepared:
		p, err := netproto.DecodePrepared(payload)
		if err != nil {
			return nil, c.die(err)
		}
		return &Stmt{c: c, id: p.ID, numParams: int(p.NumParams), isSelect: p.IsSelect, text: sqlText}, nil
	case netproto.TypeError:
		return nil, c.serverErr(payload)
	default:
		return nil, c.die(fmt.Errorf("aimnet: unexpected frame 0x%02x", typ))
	}
}

// NumParams is the number of ? placeholders.
func (s *Stmt) NumParams() int { return s.numParams }

// IsSelect reports whether the statement is a query.
func (s *Stmt) IsSelect() bool { return s.isSelect }

// Text is the statement's SQL.
func (s *Stmt) Text() string { return s.text }

// Exec runs the prepared statement with bound arguments, materialized.
func (s *Stmt) Exec(ctx context.Context, args ...model.Value) (Result, error) {
	var out Result
	err := s.c.withRetry(ctx, func() error {
		var err error
		out, err = s.execOnce(ctx, args)
		return err
	})
	return out, err
}

func (s *Stmt) execOnce(ctx context.Context, args []model.Value) (Result, error) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if err := s.c.checkOpen(); err != nil {
		return Result{}, err
	}
	if s.closed {
		return Result{}, errors.New("aimnet: statement closed")
	}
	stop := s.c.watchCancel(ctx)
	defer stop()
	m := &netproto.StmtExec{ID: s.id, Args: args}
	payload, err := m.Encode()
	if err != nil {
		return Result{}, err
	}
	if err := s.c.writeFrame(netproto.TypeStmtExec, payload); err != nil {
		return Result{}, s.c.die(err)
	}
	typ, resp, err := s.c.fr.Read()
	if err != nil {
		return Result{}, s.c.die(err)
	}
	switch typ {
	case netproto.TypeResults:
		res, err := netproto.DecodeResults(resp)
		if err != nil {
			return Result{}, s.c.die(err)
		}
		s.c.txnOpen = res.TxnOpen
		if len(res.Results) != 1 {
			return Result{}, fmt.Errorf("aimnet: expected 1 result, got %d", len(res.Results))
		}
		return res.Results[0], nil
	case netproto.TypeError:
		return Result{}, s.c.serverErr(resp)
	default:
		return Result{}, s.c.die(fmt.Errorf("aimnet: unexpected frame 0x%02x", typ))
	}
}

// Query streams the prepared SELECT with bound arguments.
func (s *Stmt) Query(ctx context.Context, args ...model.Value) (*Rows, error) {
	var r *Rows
	err := s.c.withRetry(ctx, func() error {
		var err error
		r, err = s.queryOnce(ctx, args)
		return err
	})
	return r, err
}

func (s *Stmt) queryOnce(ctx context.Context, args []model.Value) (*Rows, error) {
	s.c.mu.Lock()
	if err := s.c.checkOpen(); err != nil {
		s.c.mu.Unlock()
		return nil, err
	}
	if s.closed {
		s.c.mu.Unlock()
		return nil, errors.New("aimnet: statement closed")
	}
	m := &netproto.StmtQuery{ID: s.id, Window: s.c.opts.Window, Args: args}
	payload, err := m.Encode()
	if err != nil {
		s.c.mu.Unlock()
		return nil, err
	}
	if err := s.c.writeFrame(netproto.TypeStmtQuery, payload); err != nil {
		s.c.mu.Unlock()
		return nil, s.c.die(err)
	}
	return s.c.startStream(ctx)
}

// Close drops the server-side statement. Idempotent.
func (s *Stmt) Close() error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.closed || s.c.closed {
		s.closed = true
		return nil
	}
	s.closed = true
	m := &netproto.StmtClose{ID: s.id}
	if err := s.c.writeFrame(netproto.TypeStmtClose, m.Encode()); err != nil {
		return s.c.die(err)
	}
	typ, payload, err := s.c.fr.Read()
	if err != nil {
		return s.c.die(err)
	}
	switch typ {
	case netproto.TypeDone:
		return nil
	case netproto.TypeError:
		return s.c.serverErr(payload)
	default:
		return s.c.die(fmt.Errorf("aimnet: unexpected frame 0x%02x", typ))
	}
}
