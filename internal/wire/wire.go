// Package wire implements the SRB client/server protocol: a framed
// message layer over TCP with a challenge–response authentication
// handshake, JSON-encoded requests and responses, raw frames for bulk
// data, and a redirect message for the federation ("users can connect
// to any SRB server to access data from any other SRB server").
//
// Frame layout: 1-byte type, 4-byte big-endian payload length, payload.
// Bulk data flows as a sequence of Data frames ended by a DataEnd frame
// so transfers stream without knowing the total size up front.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"gosrb/internal/types"
)

// MsgType tags each frame.
type MsgType byte

const (
	// MsgChallenge carries the server's authentication nonce.
	MsgChallenge MsgType = iota + 1
	// MsgAuth carries the client's identity and challenge response.
	MsgAuth
	// MsgAuthOK confirms authentication.
	MsgAuthOK
	// MsgRequest carries one Request.
	MsgRequest
	// MsgResponse carries one Response.
	MsgResponse
	// MsgData carries a raw chunk of bulk data.
	MsgData
	// MsgDataEnd terminates a bulk data stream.
	MsgDataEnd
	// MsgRedirect tells the client to retry against another server.
	MsgRedirect
)

// MaxFrame bounds a single frame payload (16 MiB) so a corrupt length
// cannot exhaust memory; bulk data is chunked beneath it.
const MaxFrame = 16 << 20

// DataChunk is the bulk transfer chunk size.
const DataChunk = 256 * 1024

// Challenge is the server's opening message.
type Challenge struct {
	Server string
	Nonce  string
}

// Auth answers a challenge. Exactly one of User or Peer is set.
type Auth struct {
	User     string
	Peer     string // federated server name for server-to-server auth
	Response string // HMAC of the nonce under the derived key
}

// Request is one operation. Args is op-specific JSON. OnBehalf names
// the effective user and is honoured only on peer-authenticated
// connections — the federation's single sign-on: the owning server
// trusts a zone peer's assertion of who the end user is.
type Request struct {
	// ID correlates this request with its response: requests are
	// pipelined over a shared connection and answered out of order. The
	// client-side Mux assigns non-zero IDs and the server echoes them; a
	// request with ID zero is a protocol error that closes the
	// connection.
	ID       uint64 `json:",omitempty"`
	Op       string
	OnBehalf string
	// Ticket optionally presents a delegated-access ticket; read
	// operations honour it when the caller's own ACLs do not suffice.
	Ticket string
	// Trace carries the request-scoped trace ID. The client mints one
	// per logical call (kept across redirects); the server mints one when
	// absent and copies it onto every proxied request, so one user action
	// carries the same ID on every federation hop it touches.
	Trace string `json:",omitempty"`
	// Span is the caller's span ID. The span the receiving server opens
	// for this request becomes its child, so the per-hop records
	// reassemble into one tree instead of a flat list. Empty on
	// client-originated requests (the server opens a root span).
	Span string `json:",omitempty"`
	// Attempt is the caller's 0-based retry attempt for this logical
	// call. When positive, the receiving server annotates its span with
	// a retry event, making client-side retries visible in the trace.
	Attempt int `json:",omitempty"`
	// TimeoutMillis is the request's remaining time budget. Zero means
	// unbounded. The receiving server starts the clock at dispatch; a
	// federation hop forwards only what is left, so the budget shrinks
	// across the grid and a slow peer cannot stall the whole chain.
	TimeoutMillis int64 `json:",omitempty"`
	Args          json.RawMessage
}

// Response answers a Request. Body is op-specific JSON. ErrKind names a
// types sentinel so clients can reconstruct errors.Is-compatible errors.
type Response struct {
	// ID echoes the request's correlation ID.
	ID      uint64 `json:",omitempty"`
	OK      bool
	ErrKind string
	ErrMsg  string
	Body    json.RawMessage
	// DataFollows indicates that Data frames follow this response.
	DataFollows bool
}

// Redirect tells the client which server holds the data.
type Redirect struct {
	// ID echoes the request's correlation ID.
	ID     uint64 `json:",omitempty"`
	Server string
	Addr   string
}

// AuthOK is the body of the MsgAuthOK frame.
type AuthOK struct {
	Server string
}

// errKinds maps sentinel errors to wire names and back.
var errKinds = []struct {
	name string
	err  error
}{
	{"notfound", types.ErrNotFound},
	{"exists", types.ErrExists},
	{"permission", types.ErrPermission},
	{"locked", types.ErrLocked},
	{"offline", types.ErrOffline},
	{"invalid", types.ErrInvalid},
	{"notempty", types.ErrNotEmpty},
	{"unsupported", types.ErrUnsupported},
	{"auth", types.ErrAuth},
	{"mandatorymeta", types.ErrMandatoryMeta},
	{"timeout", types.ErrTimeout},
	{"readonly", types.ErrReadOnly},
}

// KindOf names err's sentinel for the wire; "" if unclassified.
func KindOf(err error) string {
	for _, k := range errKinds {
		if errors.Is(err, k.err) {
			return k.name
		}
	}
	return ""
}

// ErrFromKind reconstructs a client-side error wrapping the right
// sentinel.
func ErrFromKind(kind, msg string) error {
	for _, k := range errKinds {
		if k.name == kind {
			return fmt.Errorf("%s: %w", msg, k.err)
		}
	}
	return errors.New(msg)
}

// Conn frames messages over an io.ReadWriter.
type Conn struct {
	rw io.ReadWriter
}

// NewConn wraps a transport.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// WriteMsg sends one frame.
func (c *Conn) WriteMsg(t MsgType, payload []byte) error {
	if len(payload) > MaxFrame {
		return types.E("write", "", fmt.Errorf("frame of %d bytes exceeds limit: %w", len(payload), types.ErrInvalid))
	}
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.rw.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := c.rw.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadMsg receives one frame.
func (c *Conn) ReadMsg() (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, types.E("read", "", fmt.Errorf("frame of %d bytes exceeds limit: %w", n, types.ErrInvalid))
	}
	payload, err := readPayload(c.rw, int(n))
	if err != nil {
		return 0, nil, err
	}
	return MsgType(hdr[0]), payload, nil
}

// readAllocStep caps how much ReadMsg allocates ahead of bytes actually
// received. A forged header can declare any length up to MaxFrame; if
// we allocated the declared size up front, 5 attacker bytes would pin
// 16 MiB per connection. Instead the buffer grows stepwise as payload
// bytes arrive, so memory tracks what the peer really sent.
const readAllocStep = 64 * 1024

// readPayload reads exactly n payload bytes, growing the buffer in
// readAllocStep increments so a truncated or malicious frame never
// costs more than one step beyond the bytes received.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= readAllocStep {
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	buf := make([]byte, readAllocStep)
	got := 0
	for got < n {
		if got == len(buf) {
			grow := 2 * len(buf)
			if grow > n {
				grow = n
			}
			next := make([]byte, grow)
			copy(next, buf)
			buf = next
		}
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		got = len(buf)
	}
	return buf[:n], nil
}

// WriteJSON sends a JSON-encoded frame.
func (c *Conn) WriteJSON(t MsgType, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.WriteMsg(t, b)
}

// ReadJSON receives a frame, requiring the given type, and decodes it.
func (c *Conn) ReadJSON(want MsgType, v any) error {
	t, payload, err := c.ReadMsg()
	if err != nil {
		return err
	}
	if t != want {
		return fmt.Errorf("wire: expected message type %d, got %d: %w", want, t, types.ErrInvalid)
	}
	return json.Unmarshal(payload, v)
}

// chunks recycles the DataChunk-sized buffers of the data path, so a
// bulk transfer allocates nothing per frame in either direction.
var chunks = sync.Pool{New: func() any { b := make([]byte, DataChunk); return &b }}

// GetChunk borrows a DataChunk-sized buffer from the data path's pool;
// return it with PutChunk once nothing refers to it.
func GetChunk() *[]byte { return chunks.Get().(*[]byte) }

// PutChunk returns a buffer borrowed with GetChunk.
func PutChunk(b *[]byte) { chunks.Put(b) }

// SendData streams r as Data frames followed by DataEnd. It only calls
// r.Read, one pooled DataChunk at a time, so each frame carries up to a
// whole chunk.
func (c *Conn) SendData(r io.Reader) error {
	buf := GetChunk()
	defer PutChunk(buf)
	for {
		n, err := r.Read(*buf)
		if n > 0 {
			if werr := c.WriteMsg(MsgData, (*buf)[:n]); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	return c.WriteMsg(MsgDataEnd, nil)
}

// RecvData collects a Data stream into w and returns the byte count.
func (c *Conn) RecvData(w io.Writer) (int64, error) {
	return c.DataStream().WriteTo(w)
}

// DataStream reads one inbound bulk stream — Data frames up to the
// DataEnd — as an io.Reader: Read fills the caller's buffer straight
// from the connection, returning io.EOF at DataEnd. Nothing is
// allocated per frame, so a header declaring a large frame costs only
// the bytes that really arrive. A frame of any other type inside the
// stream fails with types.ErrInvalid. The first failure sticks: the
// stream's framing is lost, so every later call returns it.
type DataStream struct {
	c    *Conn
	hdr  [5]byte
	left int64 // unread payload bytes of the current Data frame
	end  bool  // DataEnd consumed
	err  error
}

// DataStream starts reading the data stream that follows on c.
func (c *Conn) DataStream() *DataStream { return &DataStream{c: c} }

// More reports whether stream bytes remain before DataEnd, reading the
// next frame header when the current frame is used up (no payload is
// consumed).
func (s *DataStream) More() (bool, error) {
	for s.err == nil && s.left == 0 && !s.end {
		s.err = s.nextFrame()
	}
	return s.err == nil && !s.end, s.err
}

// nextFrame reads the header of the stream's next frame.
func (s *DataStream) nextFrame() error {
	if _, err := io.ReadFull(s.c.rw, s.hdr[:]); err != nil {
		return unexpected(err)
	}
	n := int64(binary.BigEndian.Uint32(s.hdr[1:]))
	if n > MaxFrame {
		return types.E("read", "", fmt.Errorf("data frame of %d bytes exceeds limit: %w", n, types.ErrInvalid))
	}
	switch MsgType(s.hdr[0]) {
	case MsgData:
		s.left = n
	case MsgDataEnd:
		s.end = true
		if _, err := io.CopyN(io.Discard, s.c.rw, n); err != nil {
			return unexpected(err)
		}
	default:
		return fmt.Errorf("wire: unexpected frame %d in data stream: %w", s.hdr[0], types.ErrInvalid)
	}
	return nil
}

// Read reads up to len(p) bytes of the current frame's payload, waiting
// for all of them.
func (s *DataStream) Read(p []byte) (int, error) {
	if more, err := s.More(); !more {
		if err == nil {
			err = io.EOF
		}
		return 0, err
	}
	if int64(len(p)) > s.left {
		p = p[:s.left]
	}
	n, err := io.ReadFull(s.c.rw, p)
	s.left -= int64(n)
	if err != nil {
		s.err = unexpected(err)
	}
	return n, s.err
}

// WriteTo copies the rest of the stream to w through one pooled chunk,
// one frame payload per Write.
func (s *DataStream) WriteTo(w io.Writer) (int64, error) {
	buf := GetChunk()
	defer PutChunk(buf)
	var total int64
	for {
		n, err := s.Read(*buf)
		if n > 0 {
			m, werr := w.Write((*buf)[:n])
			total += int64(m)
			if werr != nil {
				return total, werr
			}
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// unexpected maps a clean EOF inside a stream to io.ErrUnexpectedEOF:
// only DataEnd ends a stream.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// OkResponse marshals a success response with the given body.
func OkResponse(body any, dataFollows bool) (Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return Response{}, err
	}
	return Response{OK: true, Body: raw, DataFollows: dataFollows}, nil
}

// ErrResponse marshals a failure response carrying err.
func ErrResponse(err error) Response {
	return Response{OK: false, ErrKind: KindOf(err), ErrMsg: err.Error()}
}

// Err reconstructs the error carried by a failure response.
func (r *Response) Err() error {
	if r.OK {
		return nil
	}
	return ErrFromKind(r.ErrKind, r.ErrMsg)
}
