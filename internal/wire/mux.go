// Request multiplexing: many in-flight requests sharing one
// authenticated connection. A request/response protocol that waits out
// a full round trip per operation is fatal for the paper's headline
// workload of millions of small files over high-latency links. A Mux
// assigns each request a correlation ID, serializes frame writes under
// a mutex, and runs one demux goroutine that matches responses
// (possibly out of order) back to their callers by ID, so concurrent
// operations overlap their round trips instead of queueing behind each
// other. Every server echoes the ID; a response or redirect without one
// is a protocol error that fails the whole connection rather than
// being guessed onto some caller.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/types"
)

// CallResult is one matched answer: the response, any bulk data that
// followed it, or a federation redirect.
type CallResult struct {
	Resp     Response
	Data     []byte
	Redirect *Redirect
}

type muxOutcome struct {
	res *CallResult
	err error
}

// Mux multiplexes requests over one authenticated connection. Safe for
// concurrent use; create with NewMux after the handshake.
type Mux struct {
	nc     net.Conn
	c      *Conn
	server string

	wmu sync.Mutex // serializes frame writes (request + its data stream)

	mu      sync.Mutex
	pending map[uint64]chan muxOutcome // waiter per in-flight ID
	err     error                      // first fatal error, set once

	nextID   atomic.Uint64
	inflight atomic.Int64
	dead     atomic.Bool
	lastUsed atomic.Int64 // unix nanos of last call completion

	done chan struct{}
}

// NewMux wraps an authenticated connection and starts the demux
// goroutine. server is the peer's announced name.
func NewMux(nc net.Conn, c *Conn, server string) *Mux {
	m := &Mux{
		nc:      nc,
		c:       c,
		server:  server,
		pending: make(map[uint64]chan muxOutcome),
		done:    make(chan struct{}),
	}
	m.lastUsed.Store(time.Now().UnixNano())
	go m.readLoop()
	return m
}

// Server returns the name announced by the remote end's handshake.
func (m *Mux) Server() string { return m.server }

// Dead reports whether the connection has failed; a dead Mux fails
// every call instantly and must be evicted from its pool.
func (m *Mux) Dead() bool { return m.dead.Load() }

// InFlight returns the number of calls currently awaiting responses.
func (m *Mux) InFlight() int64 { return m.inflight.Load() }

// LastUsed returns when a call last completed (idle-reap input).
func (m *Mux) LastUsed() time.Time { return time.Unix(0, m.lastUsed.Load()) }

// Close tears the connection down, failing all pending calls.
func (m *Mux) Close() error {
	m.fatal(net.ErrClosed)
	return nil
}

// fatal marks the mux dead, fails every pending call with err and
// closes the transport (unblocking the demux goroutine).
func (m *Mux) fatal(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	waiters := m.pending
	m.pending = make(map[uint64]chan muxOutcome)
	first := m.err
	m.mu.Unlock()
	if m.dead.CompareAndSwap(false, true) {
		close(m.done)
		m.nc.Close()
	}
	for _, ch := range waiters {
		ch <- muxOutcome{err: first}
	}
}

// register allocates an ID and parks a waiter for it.
func (m *Mux) register() (uint64, chan muxOutcome, error) {
	id := m.nextID.Add(1)
	ch := make(chan muxOutcome, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return 0, nil, err
	}
	m.pending[id] = ch
	m.mu.Unlock()
	return id, ch, nil
}

// unregister abandons a waiter (call timeout); a late response with
// its ID is discarded by deliver.
func (m *Mux) unregister(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// deliver hands a matched outcome to its waiter; an answer whose ID has
// no waiter belongs to an abandoned call and is dropped. An answer
// without an ID cannot be matched to anyone, so it fails the
// connection.
func (m *Mux) deliver(id uint64, out muxOutcome) {
	if id == 0 {
		m.fatal(fmt.Errorf("wire: answer without correlation ID: %w", types.ErrInvalid))
		return
	}
	m.mu.Lock()
	ch, ok := m.pending[id]
	delete(m.pending, id)
	m.mu.Unlock()
	if ok {
		ch <- out
	}
}

// readLoop is the demux goroutine: the sole reader of the connection.
// Responses announcing DataFollows have their data stream drained here
// so the next frame is again a response header.
func (m *Mux) readLoop() {
	for {
		t, payload, err := m.c.ReadMsg()
		if err != nil {
			m.fatal(err)
			return
		}
		switch t {
		case MsgResponse:
			var resp Response
			if err := json.Unmarshal(payload, &resp); err != nil {
				m.fatal(fmt.Errorf("wire: bad response frame: %w", types.ErrInvalid))
				return
			}
			res := &CallResult{Resp: resp}
			if resp.OK && resp.DataFollows {
				var buf bytes.Buffer
				if _, err := m.c.RecvData(&buf); err != nil {
					m.fatal(err)
					return
				}
				res.Data = buf.Bytes()
			}
			m.deliver(resp.ID, muxOutcome{res: res})
		case MsgRedirect:
			var rd Redirect
			if err := json.Unmarshal(payload, &rd); err != nil {
				m.fatal(fmt.Errorf("wire: bad redirect frame: %w", types.ErrInvalid))
				return
			}
			m.deliver(rd.ID, muxOutcome{res: &CallResult{Redirect: &rd}})
		default:
			m.fatal(fmt.Errorf("wire: unexpected frame %d awaiting response: %w", t, types.ErrInvalid))
			return
		}
	}
}

// Call sends req (stamping its correlation ID) plus an optional data
// stream, and waits for the matched answer. A zero deadline waits
// until the connection fails. On timeout the error wraps both
// types.ErrTimeout and os.ErrDeadlineExceeded so existing
// classification (resilience.Transport, errors.Is) keeps working.
func (m *Mux) Call(req *Request, data io.Reader, deadline time.Time) (*CallResult, error) {
	m.inflight.Add(1)
	defer func() {
		m.inflight.Add(-1)
		m.lastUsed.Store(time.Now().UnixNano())
	}()

	// Register before writing, so even an instant answer finds its
	// waiter.
	id, ch, err := m.register()
	if err != nil {
		return nil, err
	}
	req.ID = id
	m.wmu.Lock()
	err = m.c.WriteJSON(MsgRequest, req)
	if err == nil && data != nil {
		err = m.c.SendData(data)
	}
	m.wmu.Unlock()
	if err != nil {
		m.fatal(err)
		m.unregister(id)
		return nil, err
	}

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case out := <-ch:
		return out.res, out.err
	case <-timeout:
		// Abandon the call; the late response is discarded by ID.
		m.unregister(id)
		return nil, timeoutError(id)
	}
}

// timeoutError builds a call-timeout error that satisfies both
// errors.Is(err, types.ErrTimeout) and errors.Is(err,
// os.ErrDeadlineExceeded).
func timeoutError(id uint64) error {
	return fmt.Errorf("wire: request %d: %w", id, &muxTimeout{})
}

type muxTimeout struct{}

func (*muxTimeout) Error() string { return "deadline exceeded awaiting response" }
func (*muxTimeout) Is(target error) bool {
	return errors.Is(os.ErrDeadlineExceeded, target) || errors.Is(types.ErrTimeout, target)
}
