package netproto

import (
	"fmt"

	"repro/internal/model"
)

// Message payloads. Each message has an Encode producing the frame
// payload (without the type byte) and a matching Decode* function.
// Every Decode checks that the payload is consumed exactly — trailing
// bytes are a protocol error, which is what lets the torn-frame chaos
// cell assert that garbage never parses as a valid message.

// Hello opens a session.
type Hello struct {
	Version uint32
	Client  string // client name, for diagnostics
}

func (m *Hello) Encode() []byte {
	var e enc
	e.uvarint(uint64(m.Version))
	e.string(m.Client)
	return e.b
}

func DecodeHello(p []byte) (*Hello, error) {
	d := dec{b: p}
	m := &Hello{Version: uint32(d.uvarint()), Client: d.string()}
	return m, d.done()
}

// HelloOK accepts a session.
type HelloOK struct {
	Version   uint32
	SessionID uint64
	Server    string // server banner, for diagnostics
}

func (m *HelloOK) Encode() []byte {
	var e enc
	e.uvarint(uint64(m.Version))
	e.uvarint(m.SessionID)
	e.string(m.Server)
	return e.b
}

func DecodeHelloOK(p []byte) (*HelloOK, error) {
	d := dec{b: p}
	m := &HelloOK{Version: uint32(d.uvarint()), SessionID: d.uvarint(), Server: d.string()}
	return m, d.done()
}

// Exec runs a script of semicolon-separated statements with
// materialized results. BEGIN/COMMIT/ROLLBACK inside the script (or as
// the whole script) manipulate the session transaction.
type Exec struct {
	Script string
}

func (m *Exec) Encode() []byte {
	var e enc
	e.string(m.Script)
	return e.b
}

func DecodeExec(p []byte) (*Exec, error) {
	d := dec{b: p}
	m := &Exec{Script: d.string()}
	return m, d.done()
}

// Query runs one SELECT and streams its rows. Window is the initial
// row credit; the client grants more with Fetch frames as it consumes
// rows (credit-based flow control — the server never buffers more than
// the client asked for).
type Query struct {
	SQL    string
	Window uint32
}

func (m *Query) Encode() []byte {
	var e enc
	e.string(m.SQL)
	e.uvarint(uint64(m.Window))
	return e.b
}

func DecodeQuery(p []byte) (*Query, error) {
	d := dec{b: p}
	m := &Query{SQL: d.string(), Window: uint32(d.uvarint())}
	return m, d.done()
}

// Prepare parses and binds one statement server-side; the returned id
// addresses it in StmtExec/StmtQuery until StmtClose (or session end).
type Prepare struct {
	SQL string
}

func (m *Prepare) Encode() []byte {
	var e enc
	e.string(m.SQL)
	return e.b
}

func DecodePrepare(p []byte) (*Prepare, error) {
	d := dec{b: p}
	m := &Prepare{SQL: d.string()}
	return m, d.done()
}

// Prepared answers Prepare.
type Prepared struct {
	ID        uint64
	NumParams uint32
	IsSelect  bool
}

func (m *Prepared) Encode() []byte {
	var e enc
	e.uvarint(m.ID)
	e.uvarint(uint64(m.NumParams))
	e.bool(m.IsSelect)
	return e.b
}

func DecodePrepared(p []byte) (*Prepared, error) {
	d := dec{b: p}
	m := &Prepared{ID: d.uvarint(), NumParams: uint32(d.uvarint()), IsSelect: d.bool()}
	return m, d.done()
}

// StmtExec runs a prepared statement with bound arguments,
// materialized.
type StmtExec struct {
	ID   uint64
	Args []model.Value
}

func (m *StmtExec) Encode() ([]byte, error) {
	var e enc
	e.uvarint(m.ID)
	e.uvarint(uint64(len(m.Args)))
	for _, a := range m.Args {
		if err := e.value(a); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

func DecodeStmtExec(p []byte) (*StmtExec, error) {
	d := dec{b: p}
	m := &StmtExec{ID: d.uvarint()}
	n := d.uvarint()
	if n > uint64(len(d.b))+1 {
		return nil, fmt.Errorf("netproto: argument count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Args = append(m.Args, d.value())
	}
	return m, d.done()
}

// StmtQuery streams a prepared SELECT with bound arguments.
type StmtQuery struct {
	ID     uint64
	Window uint32
	Args   []model.Value
}

func (m *StmtQuery) Encode() ([]byte, error) {
	var e enc
	e.uvarint(m.ID)
	e.uvarint(uint64(m.Window))
	e.uvarint(uint64(len(m.Args)))
	for _, a := range m.Args {
		if err := e.value(a); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

func DecodeStmtQuery(p []byte) (*StmtQuery, error) {
	d := dec{b: p}
	m := &StmtQuery{ID: d.uvarint(), Window: uint32(d.uvarint())}
	n := d.uvarint()
	if n > uint64(len(d.b))+1 {
		return nil, fmt.Errorf("netproto: argument count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Args = append(m.Args, d.value())
	}
	return m, d.done()
}

// StmtClose drops a prepared statement.
type StmtClose struct {
	ID uint64
}

func (m *StmtClose) Encode() []byte {
	var e enc
	e.uvarint(m.ID)
	return e.b
}

func DecodeStmtClose(p []byte) (*StmtClose, error) {
	d := dec{b: p}
	m := &StmtClose{ID: d.uvarint()}
	return m, d.done()
}

// Fetch grants N more row credits to the session's open stream.
type Fetch struct {
	N uint32
}

func (m *Fetch) Encode() []byte {
	var e enc
	e.uvarint(uint64(m.N))
	return e.b
}

func DecodeFetch(p []byte) (*Fetch, error) {
	d := dec{b: p}
	m := &Fetch{N: uint32(d.uvarint())}
	return m, d.done()
}

// Result is one statement's materialized outcome (mirrors
// engine.Result over the wire).
type Result struct {
	Count   int64
	Message string
	Type    *model.TableType // non-nil for queries
	Table   *model.Table     // non-nil for queries
}

// Results answers Exec and StmtExec. TxnOpen reports whether the
// session has an open transaction after the script ran — the remote
// REPL's txn> prompt state.
type Results struct {
	Results []Result
	TxnOpen bool
}

func (m *Results) Encode() ([]byte, error) {
	var e enc
	e.bool(m.TxnOpen)
	e.uvarint(uint64(len(m.Results)))
	for _, r := range m.Results {
		e.varint(r.Count)
		e.string(r.Message)
		if r.Table != nil {
			e.bool(true)
			if err := e.tableType(r.Type); err != nil {
				return nil, err
			}
			if err := e.value(r.Table); err != nil {
				return nil, err
			}
		} else {
			e.bool(false)
		}
	}
	return e.b, nil
}

func DecodeResults(p []byte) (*Results, error) {
	d := dec{b: p}
	m := &Results{TxnOpen: d.bool()}
	n := d.uvarint()
	if n > uint64(len(d.b))+1 {
		return nil, fmt.Errorf("netproto: result count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		r := Result{Count: d.varint(), Message: d.string()}
		if d.bool() {
			r.Type = d.tableType()
			v := d.value()
			tbl, ok := v.(*model.Table)
			if !ok && d.err == nil {
				return nil, fmt.Errorf("netproto: result table has kind %T", v)
			}
			r.Table = tbl
		}
		m.Results = append(m.Results, r)
	}
	return m, d.done()
}

// RowHeader starts a row stream with the result schema.
type RowHeader struct {
	Type *model.TableType
}

func (m *RowHeader) Encode() ([]byte, error) {
	var e enc
	if err := e.tableType(m.Type); err != nil {
		return nil, err
	}
	return e.b, nil
}

func DecodeRowHeader(p []byte) (*RowHeader, error) {
	d := dec{b: p}
	m := &RowHeader{Type: d.tableType()}
	return m, d.done()
}

// Row carries one result tuple.
type Row struct {
	Tuple model.Tuple
}

func (m *Row) Encode() ([]byte, error) {
	var e enc
	if err := e.tuple(m.Tuple); err != nil {
		return nil, err
	}
	return e.b, nil
}

func DecodeRow(p []byte) (*Row, error) {
	t, err := DecodeRowSlab(p, nil)
	return &Row{Tuple: t}, err
}

// DecodeRowSlab decodes a Row payload into a tuple whose slots and
// atoms live in slab (nil: on the heap, a box per atom). p is only
// read: the tuple owns its bytes, so p's buffer may take the next frame
// at once.
func DecodeRowSlab(p []byte, slab *model.Slab) (model.Tuple, error) {
	d := dec{b: p, slab: slab}
	t := d.tuple()
	return t, d.done()
}

// Done ends a row stream.
type Done struct {
	Rows    uint64
	TxnOpen bool
	// Aborted is set when the stream ended because the client abandoned
	// it (StreamClose), not because the result was exhausted.
	Aborted bool
}

func (m *Done) Encode() []byte {
	var e enc
	e.uvarint(m.Rows)
	e.bool(m.TxnOpen)
	e.bool(m.Aborted)
	return e.b
}

func DecodeDone(p []byte) (*Done, error) {
	d := dec{b: p}
	m := &Done{Rows: d.uvarint(), TxnOpen: d.bool(), Aborted: d.bool()}
	return m, d.done()
}

// ErrorMsg is a typed failure frame. See err.go for the code taxonomy
// and the sentinel round-trip.
type ErrorMsg struct {
	Code         ErrCode
	Message      string
	Detail       string // code-specific: the panicking statement for CodePanic
	RetryAfterMs uint32 // backoff hint for CodeOverloaded/CodeDraining
	TxnOpen      bool
}

func (m *ErrorMsg) Encode() []byte {
	var e enc
	e.byte(byte(m.Code))
	e.string(m.Message)
	e.string(m.Detail)
	e.uvarint(uint64(m.RetryAfterMs))
	e.bool(m.TxnOpen)
	return e.b
}

func DecodeError(p []byte) (*ErrorMsg, error) {
	d := dec{b: p}
	m := &ErrorMsg{Code: ErrCode(d.byte()), Message: d.string(), Detail: d.string(),
		RetryAfterMs: uint32(d.uvarint()), TxnOpen: d.bool()}
	return m, d.done()
}

// InfoField is one named counter in an InfoResp.
type InfoField struct {
	Key string
	Val int64
}

// InfoResp answers Info with the server's counters.
type InfoResp struct {
	Fields []InfoField
}

func (m *InfoResp) Encode() []byte {
	var e enc
	e.uvarint(uint64(len(m.Fields)))
	for _, f := range m.Fields {
		e.string(f.Key)
		e.varint(f.Val)
	}
	return e.b
}

func DecodeInfoResp(p []byte) (*InfoResp, error) {
	d := dec{b: p}
	n := d.uvarint()
	if n > uint64(len(d.b))+1 {
		return nil, fmt.Errorf("netproto: field count %d exceeds payload", n)
	}
	m := &InfoResp{}
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Fields = append(m.Fields, InfoField{Key: d.string(), Val: d.varint()})
	}
	return m, d.done()
}
