// Package netproto defines the AIM wire protocol: length-prefixed
// frames carrying a small set of typed messages between an aimnet
// client and an aimserver session.
//
// Frame layout (all integers big-endian unless noted):
//
//	+----------------+----------+------------------+
//	| length uint32  | type u8  | payload ...      |
//	+----------------+----------+------------------+
//
// length counts the type byte plus the payload, so an empty message is
// length 1. Frames larger than MaxFrame are rejected on both sides —
// a torn or hostile length prefix can cost at most one allocation of
// MaxFrame bytes, never an unbounded one.
//
// Several frames may share one socket write (the server batches a
// reply's frames, see AppendFrame and AppendRow), but a write holds
// only whole frames, so a failed write never splits one.
//
// The message payloads use the same self-describing varint encoding as
// the storage layer (see codec.go): NF² values — including arbitrarily
// nested tables — and table types travel losslessly, and typed error
// frames round-trip the engine's error taxonomy (write conflicts,
// quarantined objects, recovered panics, cancellation, overload).
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/model"
)

// Version is the protocol version exchanged in the handshake. A server
// refuses clients whose major version differs.
const Version = 1

// MaxFrame bounds one frame's length field (type byte + payload).
const MaxFrame = 16 << 20

// Frame types. Client-to-server types have the high bit clear,
// server-to-client types have it set; a peer receiving a frame from
// the wrong direction treats it as a protocol error.
const (
	// Client → server.
	TypeHello       byte = 0x01 // Hello: protocol handshake
	TypeExec        byte = 0x02 // Exec: run a statement script, materialized results
	TypeQuery       byte = 0x03 // Query: run one SELECT, stream the rows
	TypePrepare     byte = 0x04 // Prepare: parse+bind a statement server-side
	TypeStmtExec    byte = 0x05 // StmtExec: run a prepared statement by id
	TypeStmtQuery   byte = 0x06 // StmtQuery: stream a prepared SELECT by id
	TypeStmtClose   byte = 0x07 // StmtClose: drop a prepared statement
	TypeFetch       byte = 0x08 // Fetch: grant row credits to the open stream
	TypeStreamClose byte = 0x09 // StreamClose: abandon the open stream
	TypeCancel      byte = 0x0A // Cancel: cancel the in-flight statement
	TypeInfo        byte = 0x0B // Info: request server/session counters
	TypeGoodbye     byte = 0x0C // Goodbye: close the session cleanly
	TypeReplStart   byte = 0x0D // ReplStart: follow the WAL from an offset (see repl.go)

	// Server → client.
	TypeHelloOK   byte = 0x81 // HelloOK: handshake accepted
	TypeResults   byte = 0x82 // Results: materialized statement results
	TypeRowHeader byte = 0x83 // RowHeader: result schema, rows follow
	TypeRow       byte = 0x84 // Row: one result tuple
	TypeDone      byte = 0x85 // Done: end of row stream
	TypeError     byte = 0x86 // Error: typed failure (see err.go)
	TypeInfoResp  byte = 0x87 // InfoResp: server/session counters
	TypePrepared  byte = 0x88 // Prepared: prepared-statement handle

	// Replication stream (server → follower, see repl.go).
	TypeReplBatch     byte = 0x89 // ReplBatch: raw committed WAL bytes
	TypeReplSnapBegin byte = 0x8A // ReplSnapBegin: checkpoint snapshot opens
	TypeReplSnapPages byte = 0x8B // ReplSnapPages: snapshot page/WAL-tail chunk
	TypeReplSnapEnd   byte = 0x8C // ReplSnapEnd: snapshot complete, batches follow
)

// ErrFrameTooLarge reports a length prefix beyond MaxFrame.
var ErrFrameTooLarge = errors.New("netproto: frame exceeds MaxFrame")

// BufSize is the size at which a batching writer flushes its frames
// to the socket, and the largest frame buffer a reader or writer keeps
// for the next frame: a buffer grown past it for one big frame is
// dropped, so a session's buffers stay this small between frames.
const BufSize = 64 << 10

// AppendFrame appends one frame to dst: the header and the payload
// (without the type byte). A payload too large for a frame leaves dst
// as it was. A writer may batch frames appended this way into one
// socket write, as long as each write holds whole frames: a write that
// fails then never leaves a half frame for the peer to misparse as the
// next frame's header.
func AppendFrame(dst []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload)+1 > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)+1))
	return append(append(dst, typ), payload...), nil
}

// AppendRow appends a whole Row frame carrying t to dst, encoding the
// tuple in place after a header it patches last. On error dst comes
// back as it was.
func AppendRow(dst []byte, t model.Tuple) ([]byte, error) {
	start := len(dst)
	e := enc{b: append(dst, 0, 0, 0, 0, TypeRow)}
	if err := e.tuple(t); err != nil {
		return dst, err
	}
	n := len(e.b) - start - 4
	if n > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(e.b[start:], uint32(n))
	return e.b, nil
}

// WriteFrame writes one frame in one Write call. The caller provides
// the payload without the type byte.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	b, err := AppendFrame(make([]byte, 0, 5+len(payload)), typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads one frame, returning its type and payload. A torn
// stream surfaces as io.ErrUnexpectedEOF; a clean close between frames
// as io.EOF.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	return readFrame(r, &hdr, nil)
}

// FrameReader reads the frames of one stream into memory it reuses: a
// header scratch and a payload buffer of up to BufSize bytes.
type FrameReader struct {
	r   io.Reader
	hdr [5]byte
	buf []byte
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Read reads the next frame as ReadFrame does. The payload is valid
// only until the next Read: a caller that keeps it past then copies it.
func (fr *FrameReader) Read() (typ byte, payload []byte, err error) {
	typ, payload, err = readFrame(fr.r, &fr.hdr, fr.buf)
	if cap(payload) > cap(fr.buf) && cap(payload) <= BufSize {
		fr.buf = payload[:0]
	}
	return typ, payload, err
}

// readFrame reads one frame, its header into hdr and its payload into
// buf when it fits, else into a new slice.
func readFrame(r io.Reader, hdr *[5]byte, buf []byte) (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, nil, fmt.Errorf("netproto: zero-length frame")
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	typ = hdr[4]
	if n == 1 {
		return typ, nil, nil
	}
	if int(n-1) <= cap(buf) {
		payload = buf[:n-1]
	} else {
		payload = make([]byte, n-1)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload, nil
}
