package netserver

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/netproto"
	"repro/internal/sql"
)

// frame is one request handed from the reader to the worker.
type frame struct {
	typ     byte
	payload []byte
}

// session is one client connection. Two goroutines cooperate:
//
//   - the reader owns the socket's read side. It decodes frames and
//     hands requests to the worker over reqs; the out-of-band frames
//     (Cancel, Fetch, StreamClose) are applied immediately so they work
//     while a statement is executing or a stream is mid-flight.
//   - the worker (run) owns the write side and all session state: the
//     engine session (which owns the open transaction), the
//     prepared-statement registry, the one open row stream. It executes
//     one request at a time, so session state never needs a lock.
//
// The worker appends every frame it sends to one output buffer and
// writes the buffer to the socket at a few points only (see flush), so
// a reply that fits the client's credit window is one socket write.
//
// Teardown runs exactly once, in the worker, on every exit path —
// clean Goodbye, dead peer, torn frame, protocol error, idle timeout,
// drain, hard kill — and always rolls back the open transaction
// (releasing its write locks) and closes the connection. Row streams
// close inside the worker before teardown, so no cursor survives it
// and no buffer page stays pinned.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn
	fr   *netproto.FrameReader

	// ctx is the session's base context; kill() cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	reqs     chan frame    // reader → worker requests
	dying    chan struct{} // closed when the worker exits; unblocks the reader's handoff
	peerGone chan struct{} // closed when the reader exits; unblocks credit waits

	// cancelStmt cancels the in-flight statement (Cancel frame, kill).
	cancelMu   sync.Mutex
	cancelStmt context.CancelFunc

	// Row-stream flow control: the reader adds Fetch credits and flags
	// aborts; flowCh (capacity 1) wakes a worker waiting for credit.
	credits atomic.Int64
	abort   atomic.Bool
	flowCh  chan struct{}

	// drainCh asks the worker to finish its current statement and
	// close (graceful drain).
	drainCh   chan struct{}
	drainOnce sync.Once

	// Worker-owned state (no locks needed). Every statement runs through
	// eng, in whatever scope its BEGIN/COMMIT/ROLLBACK left.
	eng      *engine.Session
	stmts    map[uint64]*engine.PreparedStmt
	nextStmt uint64

	// out holds the whole frames written since the last flush, and
	// outBytes their payload bytes (type byte included) for BytesOut.
	out      []byte
	outBytes uint64

	// Exit bookkeeping for the drained/killed counters.
	drained bool
	failed  bool
}

func newSession(s *Server, id uint64, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	return &session{
		srv:      s,
		id:       id,
		conn:     conn,
		fr:       netproto.NewFrameReader(bufio.NewReader(conn)),
		ctx:      ctx,
		cancel:   cancel,
		reqs:     make(chan frame, 1),
		dying:    make(chan struct{}),
		peerGone: make(chan struct{}),
		flowCh:   make(chan struct{}, 1),
		drainCh:  make(chan struct{}),
		eng:      s.db.NewSession(),
		stmts:    make(map[uint64]*engine.PreparedStmt),
	}
}

// beginDrain asks the session to close once its in-flight statement
// (if any) finishes. Idempotent; called by Server.Shutdown.
func (sess *session) beginDrain() {
	sess.drainOnce.Do(func() { close(sess.drainCh) })
}

// kill severs the session immediately: cancel the in-flight statement,
// cancel the session context (unblocking credit waits), and expire all
// socket deadlines so blocked reads and writes return now. Teardown
// still runs in the worker, so state is released in order.
func (sess *session) kill(reason string) {
	sess.cancelInFlight()
	sess.cancel()
	sess.conn.SetDeadline(time.Now())
}

func (sess *session) cancelInFlight() bool {
	sess.cancelMu.Lock()
	c := sess.cancelStmt
	sess.cancelMu.Unlock()
	if c == nil {
		return false
	}
	c()
	return true
}

// run is the worker: handshake, then one request at a time until an
// exit path fires. The deferred teardown is the session's only
// teardown, shared by every path.
func (sess *session) run() {
	defer sess.teardown()
	if err := sess.handshake(); !sess.flush() || err != nil {
		sess.failed = true
		return
	}
	go sess.readLoop()
	for {
		sess.setIdleDeadline()
		select {
		case <-sess.drainCh:
			sess.drained = true
			sess.writeErr(&netproto.ServerError{
				Code:       netproto.CodeDraining,
				Message:    "server draining",
				RetryAfter: sess.srv.opts.RetryAfter,
			})
			sess.flush()
			return
		case f, ok := <-sess.reqs:
			if !ok {
				// Reader gone: dead peer, torn frame, or idle timeout.
				sess.failed = true
				return
			}
			sess.conn.SetReadDeadline(time.Time{})
			// The end of every reply is a flush point.
			if exit := sess.handle(f); !sess.flush() || exit {
				return
			}
		}
	}
}

// setIdleDeadline arms the idle reaper while the worker waits for the
// next request. SetReadDeadline takes effect even for a Read already
// blocked in the reader goroutine.
func (sess *session) setIdleDeadline() {
	if d := sess.srv.opts.IdleTimeout; d > 0 {
		sess.conn.SetReadDeadline(time.Now().Add(d))
	}
}

// teardown releases everything the session holds, exactly once:
// rollback the open transaction (dropping its write locks so other
// sessions never inherit a phantom conflict), close the socket
// (unblocking the reader), and fix up the counters.
func (sess *session) teardown() {
	close(sess.dying)
	sess.cancel()
	sess.eng.Close()
	sess.conn.Close()
	ctr := sess.srv.ctr
	ctr.SessionsOpen.Add(-1)
	if sess.drained {
		ctr.Drained.Add(1)
	} else if sess.failed {
		ctr.Killed.Add(1)
	}
	sess.srv.removeSession(sess.id)
}

// handshake expects a Hello within HandshakeTimeout and answers
// HelloOK.
func (sess *session) handshake() error {
	sess.conn.SetReadDeadline(time.Now().Add(sess.srv.opts.HandshakeTimeout))
	typ, payload, err := sess.fr.Read()
	if err != nil {
		return err
	}
	sess.srv.ctr.BytesIn.Add(uint64(len(payload)) + 1)
	if typ != netproto.TypeHello {
		sess.writeErr(protoErr("expected Hello, got frame 0x%02x", typ))
		return errors.New("bad handshake")
	}
	hello, err := netproto.DecodeHello(payload)
	if err != nil {
		sess.writeErr(protoErr("bad Hello: %v", err))
		return err
	}
	if hello.Version != netproto.Version {
		err := protoErr("protocol version %d not supported (server speaks %d)", hello.Version, netproto.Version)
		sess.writeErr(err)
		return err
	}
	sess.conn.SetReadDeadline(time.Time{})
	ok := &netproto.HelloOK{Version: netproto.Version, SessionID: sess.id, Server: sess.srv.opts.Banner}
	if !sess.write(netproto.TypeHelloOK, ok.Encode()) {
		return errors.New("handshake write failed")
	}
	return nil
}

// readLoop owns the socket's read side. Out-of-band frames act
// immediately; everything else is handed to the worker in a copy of its
// own, since the worker reads it while the next frame is read. Any read
// error (dead peer, torn frame, idle/kill deadline) closes reqs, which
// the worker treats as session end.
func (sess *session) readLoop() {
	defer func() {
		close(sess.peerGone)
		close(sess.reqs)
	}()
	for {
		typ, payload, err := sess.fr.Read()
		if err != nil {
			return
		}
		sess.srv.ctr.BytesIn.Add(uint64(len(payload)) + 1)
		switch typ {
		case netproto.TypeCancel:
			if sess.cancelInFlight() {
				sess.srv.ctr.Cancels.Add(1)
			}
		case netproto.TypeFetch:
			if f, err := netproto.DecodeFetch(payload); err == nil {
				sess.credits.Add(int64(f.N))
				sess.wakeFlow()
			}
		case netproto.TypeStreamClose:
			sess.abort.Store(true)
			sess.wakeFlow()
		default:
			select {
			case sess.reqs <- frame{typ, bytes.Clone(payload)}:
			case <-sess.dying:
				return
			}
		}
	}
}

func (sess *session) wakeFlow() {
	select {
	case sess.flowCh <- struct{}{}:
	default:
	}
}

// write appends one frame to the output buffer. Returns false when the
// session must die.
func (sess *session) write(typ byte, payload []byte) bool {
	out, err := netproto.AppendFrame(sess.out, typ, payload)
	if err != nil {
		sess.failed = true
		return false
	}
	return sess.queue(out, len(payload)+1)
}

// send writes one frame and flushes it at once, for the frames of a
// replication stream, which the follower needs as they are made.
func (sess *session) send(typ byte, payload []byte) bool {
	return sess.write(typ, payload) && sess.flush()
}

// queue takes the output buffer back with one more frame of n payload
// bytes (type byte included) appended, and flushes it once it reaches
// netproto.BufSize. Returns false when the session must die.
func (sess *session) queue(out []byte, n int) bool {
	sess.out = out
	sess.outBytes += uint64(n)
	return len(out) < netproto.BufSize || sess.flush()
}

// flush writes the buffered frames in one socket write, bounded by
// WriteTimeout so a stalled client cannot pin the worker. The worker
// flushes at the end of every reply, in a stream before it parks for
// credit (so the client holds every row it was granted credit for and
// can grant more), and when the buffer reaches netproto.BufSize. A
// buffer grown past that for one big frame is dropped, not kept.
// Returns false when the session must die.
func (sess *session) flush() bool {
	if sess.failed {
		return false
	}
	if len(sess.out) == 0 {
		return true
	}
	if d := sess.srv.opts.WriteTimeout; d > 0 {
		sess.conn.SetWriteDeadline(time.Now().Add(d))
	}
	// Counted first: a client that has read the reply sees it counted.
	ctr := sess.srv.ctr
	ctr.Writes.Add(1)
	if _, err := sess.conn.Write(sess.out); err != nil {
		sess.failed = true
		return false
	}
	ctr.BytesOut.Add(sess.outBytes)
	sess.outBytes = 0
	if cap(sess.out) > netproto.BufSize {
		sess.out = nil
	} else {
		sess.out = sess.out[:0]
	}
	return true
}

// writeErr reports a failure as a typed Error frame. Returns false
// when the write itself failed (session must die).
func (sess *session) writeErr(err error) bool {
	code, detail := netproto.Classify(err)
	msg := &netproto.ErrorMsg{
		Code:    code,
		Message: err.Error(),
		Detail:  detail,
		TxnOpen: sess.eng.InTxn(),
	}
	var se *netproto.ServerError
	if errors.As(err, &se) {
		msg.Message = se.Message
		msg.RetryAfterMs = uint32(se.RetryAfter / time.Millisecond)
	}
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		msg.Message = fmt.Sprint(pe.Value)
	}
	return sess.write(netproto.TypeError, msg.Encode())
}

func protoErr(format string, args ...any) error {
	return &netproto.ServerError{Code: netproto.CodeProtocol, Message: fmt.Sprintf(format, args...)}
}

// handle executes one request. It returns true when the session must
// exit: clean Goodbye, a protocol violation (session state is no
// longer trustworthy), or a failed response write.
func (sess *session) handle(f frame) bool {
	switch f.typ {
	case netproto.TypeGoodbye:
		return true
	case netproto.TypeInfo:
		// Monitoring must work even under overload: no statement slot.
		return !sess.sendInfo()
	case netproto.TypeExec:
		m, err := netproto.DecodeExec(f.payload)
		if err != nil {
			sess.writeErr(protoErr("bad Exec: %v", err))
			return true
		}
		return sess.doExec(m.Script)
	case netproto.TypeQuery:
		m, err := netproto.DecodeQuery(f.payload)
		if err != nil {
			sess.writeErr(protoErr("bad Query: %v", err))
			return true
		}
		return sess.doQuery(m.SQL, m.Window)
	case netproto.TypePrepare:
		m, err := netproto.DecodePrepare(f.payload)
		if err != nil {
			sess.writeErr(protoErr("bad Prepare: %v", err))
			return true
		}
		return sess.doPrepare(m.SQL)
	case netproto.TypeStmtExec:
		m, err := netproto.DecodeStmtExec(f.payload)
		if err != nil {
			sess.writeErr(protoErr("bad StmtExec: %v", err))
			return true
		}
		return sess.doStmtExec(m.ID, m.Args)
	case netproto.TypeStmtQuery:
		m, err := netproto.DecodeStmtQuery(f.payload)
		if err != nil {
			sess.writeErr(protoErr("bad StmtQuery: %v", err))
			return true
		}
		return sess.doStmtQuery(m.ID, m.Window, m.Args)
	case netproto.TypeReplStart:
		m, err := netproto.DecodeReplStart(f.payload)
		if err != nil {
			sess.writeErr(protoErr("bad ReplStart: %v", err))
			return true
		}
		return sess.doRepl(m.From)
	case netproto.TypeStmtClose:
		m, err := netproto.DecodeStmtClose(f.payload)
		if err != nil {
			sess.writeErr(protoErr("bad StmtClose: %v", err))
			return true
		}
		delete(sess.stmts, m.ID)
		return !sess.write(netproto.TypeDone, (&netproto.Done{}).Encode())
	default:
		sess.writeErr(protoErr("unexpected frame 0x%02x", f.typ))
		return true
	}
}

// beginStmt applies statement admission control and registers the
// in-flight cancel hook. On success the caller must call endStmt.
func (sess *session) beginStmt() (context.Context, context.CancelFunc, error) {
	if sess.srv.Draining() {
		return nil, nil, &netproto.ServerError{
			Code:       netproto.CodeDraining,
			Message:    "server draining",
			RetryAfter: sess.srv.opts.RetryAfter,
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if d := sess.srv.opts.StmtTimeout; d > 0 {
		ctx, cancel = context.WithTimeout(sess.ctx, d)
	} else {
		ctx, cancel = context.WithCancel(sess.ctx)
	}
	if err := sess.srv.acquireSlot(ctx); err != nil {
		cancel()
		return nil, nil, err
	}
	sess.cancelMu.Lock()
	sess.cancelStmt = cancel
	sess.cancelMu.Unlock()
	sess.srv.ctr.StmtsTotal.Add(1)
	sess.srv.ctr.StmtsInFlight.Add(1)
	return ctx, cancel, nil
}

func (sess *session) endStmt(cancel context.CancelFunc) {
	sess.cancelMu.Lock()
	sess.cancelStmt = nil
	sess.cancelMu.Unlock()
	cancel()
	sess.srv.releaseSlot()
	sess.srv.ctr.StmtsInFlight.Add(-1)
}

// doExec runs a script with materialized results (the Exec request).
func (sess *session) doExec(script string) bool {
	ctx, cancel, err := sess.beginStmt()
	if err != nil {
		return !sess.writeErr(err)
	}
	res, err := sess.runScript(ctx, script)
	sess.endStmt(cancel)
	if err != nil {
		return !sess.writeErr(err)
	}
	payload, err := res.Encode()
	if err != nil {
		return !sess.writeErr(err)
	}
	return !sess.write(netproto.TypeResults, payload)
}

// runScript runs a script through the engine session, which switches
// the session transaction on BEGIN/COMMIT/ROLLBACK.
func (sess *session) runScript(ctx context.Context, script string) (*netproto.Results, error) {
	results, err := sess.eng.ExecScript(ctx, script)
	if err != nil {
		return nil, err
	}
	out := &netproto.Results{TxnOpen: sess.eng.InTxn()}
	for _, res := range results {
		out.Results = append(out.Results, netResult(res))
	}
	return out, nil
}

func netResult(res engine.Result) netproto.Result {
	return netproto.Result{
		Count:   int64(res.Count),
		Message: res.Message,
		Type:    res.Type,
		Table:   res.Table,
	}
}

// doPrepare parses and binds one statement, registering it under a
// session-local id.
func (sess *session) doPrepare(text string) bool {
	if len(sess.stmts) >= sess.srv.opts.MaxPreparedPerSession {
		return !sess.writeErr(fmt.Errorf("prepared-statement limit (%d) reached", sess.srv.opts.MaxPreparedPerSession))
	}
	ps, err := sess.srv.db.Prepare(text)
	if err != nil {
		return !sess.writeErr(err)
	}
	sess.nextStmt++
	id := sess.nextStmt
	sess.stmts[id] = ps
	_, isSelect := ps.Stmt().(*sql.Select)
	resp := &netproto.Prepared{ID: id, NumParams: uint32(ps.NumParams()), IsSelect: isSelect}
	return !sess.write(netproto.TypePrepared, resp.Encode())
}

func (sess *session) lookupStmt(id uint64) (*engine.PreparedStmt, error) {
	ps, ok := sess.stmts[id]
	if !ok {
		return nil, fmt.Errorf("unknown prepared statement %d", id)
	}
	return ps, nil
}

// doStmtExec runs a prepared statement with bound args, materialized.
func (sess *session) doStmtExec(id uint64, args []model.Value) bool {
	ps, err := sess.lookupStmt(id)
	if err != nil {
		return !sess.writeErr(err)
	}
	ctx, cancel, err := sess.beginStmt()
	if err != nil {
		return !sess.writeErr(err)
	}
	res, err := sess.eng.ExecPrepared(ctx, ps, args...)
	sess.endStmt(cancel)
	if err != nil {
		return !sess.writeErr(err)
	}
	out := &netproto.Results{Results: []netproto.Result{netResult(res)}, TxnOpen: sess.eng.InTxn()}
	payload, err := out.Encode()
	if err != nil {
		return !sess.writeErr(err)
	}
	return !sess.write(netproto.TypeResults, payload)
}

// doQuery streams one SELECT (the Query request).
func (sess *session) doQuery(text string, window uint32) bool {
	ctx, cancel, err := sess.beginStmt()
	if err != nil {
		return !sess.writeErr(err)
	}
	rows, err := sess.openQuery(ctx, text)
	if err != nil {
		sess.endStmt(cancel)
		return !sess.writeErr(err)
	}
	ok := sess.stream(ctx, rows, window)
	sess.endStmt(cancel)
	return !ok
}

// openQuery parses text as exactly one statement and opens its cursor
// in the session's scope (the engine rejects anything but a SELECT).
func (sess *session) openQuery(ctx context.Context, text string) (*engine.Rows, error) {
	st, err := sql.ParseOneStmt(text)
	if err != nil {
		return nil, err
	}
	return sess.eng.QueryRows(ctx, st)
}

// doStmtQuery streams a prepared SELECT with bound args.
func (sess *session) doStmtQuery(id uint64, window uint32, args []model.Value) bool {
	ps, err := sess.lookupStmt(id)
	if err != nil {
		return !sess.writeErr(err)
	}
	ctx, cancel, err := sess.beginStmt()
	if err != nil {
		return !sess.writeErr(err)
	}
	rows, err := sess.eng.QueryRowsPrepared(ctx, ps, args...)
	if err != nil {
		sess.endStmt(cancel)
		return !sess.writeErr(err)
	}
	ok := sess.stream(ctx, rows, window)
	sess.endStmt(cancel)
	return !ok
}

// stream sends RowHeader, then rows under credit-based flow control,
// then Done (or a typed Error). The cursor always closes here, inside
// the worker, before the next request runs — so cancellation, aborts,
// client death and drain all leave zero pinned pages. Returns false
// when the session must die (write failure).
func (sess *session) stream(ctx context.Context, rows *engine.Rows, window uint32) bool {
	defer rows.Close()
	// Reset flow-control state; stale credits or aborts from a previous
	// stream must not leak into this one.
	sess.credits.Store(int64(window))
	sess.abort.Store(false)
	select {
	case <-sess.flowCh:
	default:
	}

	hdr := &netproto.RowHeader{Type: rows.Type()}
	payload, err := hdr.Encode()
	if err != nil {
		return sess.writeErr(err)
	}
	if !sess.write(netproto.TypeRowHeader, payload) {
		return false
	}

	var sent uint64
	for {
		if sess.abort.Load() {
			done := &netproto.Done{Rows: sent, TxnOpen: sess.eng.InTxn(), Aborted: true}
			return sess.write(netproto.TypeDone, done.Encode())
		}
		if err := sess.takeCredit(ctx); err != nil {
			return !sess.failed && sess.writeErr(err)
		}
		if sess.abort.Load() {
			continue // takeCredit returned because of the abort
		}
		if !rows.Next() {
			break
		}
		start := len(sess.out)
		out, err := netproto.AppendRow(sess.out, rows.Tuple())
		if err != nil {
			return sess.writeErr(err)
		}
		if !sess.queue(out, len(out)-start-4) {
			return false
		}
		sent++
		sess.srv.ctr.RowsStreamed.Add(1)
	}
	if err := rows.Err(); err != nil {
		return sess.writeErr(err)
	}
	done := &netproto.Done{Rows: sent, TxnOpen: sess.eng.InTxn()}
	return sess.write(netproto.TypeDone, done.Encode())
}

// takeCredit consumes one row credit, waiting for a Fetch grant when
// the window is exhausted. Before it waits it flushes the rows buffered
// so far: the client grants more credit only for rows it has read. It
// returns early (without consuming) when the stream is aborted, and
// errors when the statement is canceled, the session dies or the flush
// fails (with sess.failed set).
func (sess *session) takeCredit(ctx context.Context) error {
	for {
		c := sess.credits.Load()
		if c > 0 {
			if sess.credits.CompareAndSwap(c, c-1) {
				return nil
			}
			continue
		}
		if sess.abort.Load() {
			return nil
		}
		if !sess.flush() {
			return errors.New("write failed mid-stream")
		}
		select {
		case <-sess.flowCh:
		case <-ctx.Done():
			return ctx.Err()
		case <-sess.peerGone:
			return errors.New("client disconnected mid-stream")
		case <-sess.dying:
			return context.Canceled
		}
	}
}

// sendInfo answers Info with a counter snapshot — the wire twin of
// aim.Stats().Net.
func (sess *session) sendInfo() bool {
	st := sess.srv.Stats()
	resp := &netproto.InfoResp{Fields: []netproto.InfoField{
		{Key: "sessions_open", Val: st.SessionsOpen},
		{Key: "sessions_peak", Val: st.SessionsPeak},
		{Key: "sessions_total", Val: int64(st.SessionsTotal)},
		{Key: "stmts_in_flight", Val: st.StmtsInFlight},
		{Key: "stmts_total", Val: int64(st.StmtsTotal)},
		{Key: "queue_depth", Val: st.QueueDepth},
		{Key: "queue_waits", Val: int64(st.QueueWaits)},
		{Key: "shed_sessions", Val: int64(st.ShedSessions)},
		{Key: "shed_stmts", Val: int64(st.ShedStmts)},
		{Key: "drained", Val: int64(st.Drained)},
		{Key: "killed", Val: int64(st.Killed)},
		{Key: "cancels", Val: int64(st.Cancels)},
		{Key: "bytes_in", Val: int64(st.BytesIn)},
		{Key: "bytes_out", Val: int64(st.BytesOut)},
		{Key: "rows_streamed", Val: int64(st.RowsStreamed)},
		{Key: "writes", Val: int64(st.Writes)},
	}}
	return sess.write(netproto.TypeInfoResp, resp.Encode())
}
