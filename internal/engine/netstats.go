package engine

import "sync/atomic"

// NetCounters are the network front end's live counters. The server
// (internal/netserver) increments them lock-free while sessions run;
// Stats() and the protocol INFO request read consistent snapshots.
// They live in the engine so that aim.Stats() can surface them next to
// the buffer, WAL and plan-cache counters without the aim package
// depending on the server.
//
// Monotonicity contract (asserted by the stats hammer test): every
// *Total counter and every shed/drain/kill counter only grows; the
// *Open/InFlight/QueueDepth gauges move both ways but never go
// negative.
type NetCounters struct {
	SessionsOpen  atomic.Int64  // currently open sessions
	SessionsPeak  atomic.Int64  // high-water mark of SessionsOpen (never below it; see NoteSessionOpen)
	SessionsTotal atomic.Uint64 // sessions ever admitted

	StmtsInFlight atomic.Int64  // statements currently executing
	StmtsTotal    atomic.Uint64 // statements ever started
	QueueDepth    atomic.Int64  // statements waiting for an execution slot
	QueueWaits    atomic.Uint64 // statements that had to queue before running

	ShedSessions atomic.Uint64 // connections refused by admission control
	ShedStmts    atomic.Uint64 // statements shed with ErrOverloaded
	Drained      atomic.Uint64 // sessions closed by graceful drain
	Killed       atomic.Uint64 // sessions torn down on error (dead peer, torn frame, timeout)
	Cancels      atomic.Uint64 // cancel frames honored

	BytesIn      atomic.Uint64 // payload bytes read from clients
	BytesOut     atomic.Uint64 // payload bytes written to clients
	RowsStreamed atomic.Uint64 // result rows sent over row streams
	Writes       atomic.Uint64 // socket writes to clients (one carries one or more whole frames)
}

// NoteSessionOpen records an admitted session, maintaining the peak.
// The peak is raised to the value the gauge is about to take before the
// gauge takes it, so a reader that loads the gauge and then the peak
// (as Snapshot does) never sees the peak below the gauge. The price is
// that the peak is an upper bound rather than the exact maximum: when a
// session closes between the raise and the gauge's compare-and-swap,
// the retry starts one lower and the peak keeps a value the gauge would
// only have reached had that close come a moment later. It over-reports
// by at most the closes that race with opens at the high-water mark.
func (c *NetCounters) NoteSessionOpen() {
	c.SessionsTotal.Add(1)
	for {
		open := c.SessionsOpen.Load()
		for peak := c.SessionsPeak.Load(); peak <= open; peak = c.SessionsPeak.Load() {
			if c.SessionsPeak.CompareAndSwap(peak, open+1) {
				break
			}
		}
		if c.SessionsOpen.CompareAndSwap(open, open+1) {
			return
		}
	}
}

// NetStats is a point-in-time snapshot of NetCounters.
type NetStats struct {
	SessionsOpen  int64
	SessionsPeak  int64
	SessionsTotal uint64

	StmtsInFlight int64
	StmtsTotal    uint64
	QueueDepth    int64
	QueueWaits    uint64

	ShedSessions uint64
	ShedStmts    uint64
	Drained      uint64
	Killed       uint64
	Cancels      uint64

	BytesIn      uint64
	BytesOut     uint64
	RowsStreamed uint64
	Writes       uint64
}

// Snapshot reads the counters. Each field is read atomically; the
// snapshot as a whole is not a consistent cut, which is fine for
// monitoring counters.
func (c *NetCounters) Snapshot() NetStats {
	return NetStats{
		SessionsOpen:  c.SessionsOpen.Load(),
		SessionsPeak:  c.SessionsPeak.Load(),
		SessionsTotal: c.SessionsTotal.Load(),
		StmtsInFlight: c.StmtsInFlight.Load(),
		StmtsTotal:    c.StmtsTotal.Load(),
		QueueDepth:    c.QueueDepth.Load(),
		QueueWaits:    c.QueueWaits.Load(),
		ShedSessions:  c.ShedSessions.Load(),
		ShedStmts:     c.ShedStmts.Load(),
		Drained:       c.Drained.Load(),
		Killed:        c.Killed.Load(),
		Cancels:       c.Cancels.Load(),
		BytesIn:       c.BytesIn.Load(),
		BytesOut:      c.BytesOut.Load(),
		RowsStreamed:  c.RowsStreamed.Load(),
		Writes:        c.Writes.Load(),
	}
}

// NetCounters returns the database's network counters, creating them
// on first use. The server attaches through here so that aim.Stats()
// and the INFO request observe the same counters.
func (db *DB) NetCounters() *NetCounters {
	if c := db.netCtr.Load(); c != nil {
		return c
	}
	fresh := &NetCounters{}
	if db.netCtr.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return db.netCtr.Load()
}

// NetStats snapshots the network counters; all-zero when no server has
// ever attached.
func (db *DB) NetStats() NetStats {
	if c := db.netCtr.Load(); c != nil {
		return c.Snapshot()
	}
	return NetStats{}
}
