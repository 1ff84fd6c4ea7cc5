// Package server implements srbd, the federated SRB server: it exposes
// the broker over the wire protocol, authenticates users and zone peers
// with challenge–response, and federates access to data held by other
// servers — by proxying bytes or by redirecting the client, the paper's
// "users can connect to any SRB server to access data from any other
// SRB server" (§3.1).
//
// As in SRB 1.x, a federation shares one MCAT: every server is built
// over the same catalog, while each server mounts drivers only for the
// resources it owns (types.Resource.Server names the owner).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/core"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// FederationMode selects how non-local data is served.
type FederationMode int

const (
	// Proxy relays the bytes through this server.
	Proxy FederationMode = iota
	// Redirect tells the client to reconnect to the owning server.
	Redirect
)

// Server is one srbd instance.
type Server struct {
	broker *core.Broker
	authn  *auth.Authenticator
	name   string
	mode   FederationMode

	mu    sync.RWMutex
	peers map[string]peer // server name -> address + secret

	tickets *auth.TicketStore

	// dialTimeout bounds peer connection establishment. It defaults to
	// resilience.DialTimeout, the one tunable the client shares.
	dialTimeout time.Duration
	// peerDial, when set, replaces the TCP dialer for peer connections
	// (fault injection wraps it to script peer crashes).
	peerDial func(addr string) (net.Conn, error)
	// peerPool reuses peer-authenticated connections across federation
	// calls — the dial-per-call model this replaces cost a full dial +
	// handshake round trip on every proxied op.
	peerPool *wire.Pool
	// retry shapes federation retries for idempotent proxied ops.
	retry resilience.Policy
	sleep func(time.Duration)

	// slowOp holds the slow-operation threshold in nanoseconds (0 =
	// disabled). Requests whose dispatch span exceeds it get their full
	// local span tree written to the log (srbd's -slow-op flag).
	slowOp atomic.Int64

	ln net.Listener
	wg sync.WaitGroup
	// connsMu guards conns, the set of live inbound connections. Close
	// shuts them down explicitly: pooled peer and client connections
	// stay open across calls, so waiting for EOF would wait forever.
	connsMu   sync.Mutex
	conns     map[net.Conn]struct{}
	closed    chan struct{}
	closeOnce sync.Once
	admin     *adminServer
	// Logger receives connection and operation errors with op,
	// remote-addr and trace-ID context. Defaults to stderr at LevelError
	// so failures are never silently swallowed; srbd raises it to
	// LevelInfo (or back down with -quiet).
	Logger *obs.Logger
}

type peer struct {
	addr   string
	secret string
}

// New returns a server over the broker. name must match the broker's
// server name so resource ownership resolves consistently.
func New(b *core.Broker, a *auth.Authenticator, mode FederationMode) *Server {
	s := &Server{
		broker:      b,
		authn:       a,
		name:        b.ServerName(),
		mode:        mode,
		peers:       make(map[string]peer),
		conns:       make(map[net.Conn]struct{}),
		tickets:     auth.NewTicketStore(),
		closed:      make(chan struct{}),
		dialTimeout: resilience.DialTimeout,
		retry:       resilience.DefaultPolicy,
		sleep:       time.Sleep,
		Logger:      obs.NewLogger(os.Stderr, b.ServerName(), obs.LevelError),
	}
	s.peerPool = wire.NewPool(wire.PoolConfig{
		Dial:    s.dialPeerMux,
		Metrics: b.Metrics(),
		Prefix:  "federation.pool",
		Gate:    s.peerGate,
	})
	return s
}

// peerGate makes checkout breaker-aware: a pooled connection to a peer
// whose breaker is open fails fast at the pool, before any frame moves.
func (s *Server) peerGate(addr string) wire.Gate {
	name := s.peerNameByAddr(addr)
	if name == "" {
		return nil
	}
	return s.peerBreaker(name)
}

// peerNameByAddr reverse-resolves a peer address to its server name.
func (s *Server) peerNameByAddr(addr string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, p := range s.peers {
		if p.addr == addr {
			return name
		}
	}
	return ""
}

// PeerPoolStats reports the federation connection pool's occupancy and
// lifetime dial/eviction/reap counters (chaos tests and status pages).
func (s *Server) PeerPoolStats() wire.PoolStats { return s.peerPool.Stats() }

// SetDialTimeout tunes how long peer dials may take (srbd's
// -dial-timeout flag).
func (s *Server) SetDialTimeout(d time.Duration) {
	if d > 0 {
		s.dialTimeout = d
	}
}

// SetPeerDialer replaces the transport used to reach peers (tests and
// fault injection). nil restores plain TCP. Pooled connections dialed
// under the old transport are dropped so the swap takes effect
// immediately.
func (s *Server) SetPeerDialer(dial func(addr string) (net.Conn, error)) {
	s.peerDial = dial
	s.flushPeerPool()
}

// flushPeerPool closes every pooled peer connection (transport swap).
func (s *Server) flushPeerPool() {
	s.peerPool.Flush()
}

// SetRetryPolicy tunes federation retries for idempotent proxied ops.
func (s *Server) SetRetryPolicy(p resilience.Policy) {
	if p.MaxAttempts > 0 {
		s.retry = p
	}
}

// SetSlowOpThreshold enables the slow-op log: any request taking at
// least d gets its full local span tree logged (0 disables).
func (s *Server) SetSlowOpThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.slowOp.Store(int64(d))
}

// Name returns the server's federation name.
func (s *Server) Name() string { return s.name }

// Tickets exposes the server's delegated-access ticket store.
func (s *Server) Tickets() *auth.TicketStore { return s.tickets }

// AddPeer registers a federated peer and the shared zone secret used
// for server-to-server authentication.
func (s *Server) AddPeer(name, addr, secret string) {
	s.mu.Lock()
	s.peers[name] = peer{addr: addr, secret: secret}
	s.mu.Unlock()
	s.authn.RegisterPeer(name, secret)
}

// PeerAddr resolves a peer's address.
func (s *Server) PeerAddr(name string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.peers[name]
	return p.addr, ok
}

// Listen starts accepting connections on addr ("host:0" picks a port)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener (and the admin endpoint, when serving) and
// waits for active connections to finish. It is safe to call more than
// once.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.ln != nil {
			err = s.ln.Close()
		}
		s.closeAdmin()
		s.peerPool.Close()
		s.connsMu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.connsMu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.Logger.Errorf("accept: %v", err)
				return
			}
		}
		s.connsMu.Lock()
		s.conns[conn] = struct{}{}
		s.connsMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.connsMu.Lock()
				delete(s.conns, conn)
				s.connsMu.Unlock()
			}()
			// net.ErrClosed covers both a client dropping a pooled conn
			// and Close force-closing tracked conns: routine teardown,
			// not an error worth logging.
			if err := s.handleConn(conn); err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Logger.Errorf("conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// connWriter serializes response-stream writes on one connection.
// Pipelined handlers finish out of order; the mutex makes each
// response (and its trailing data frames) one atomic unit on the wire.
// A write error is latched and the conn closed, so the reader loop
// unblocks and every later write fails fast.
type connWriter struct {
	mu  sync.Mutex
	c   *wire.Conn
	nc  net.Conn
	err error
}

// send runs one response write under the lock.
func (w *connWriter) send(fn func(c *wire.Conn) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := fn(w.c); err != nil {
		w.err = err
		w.nc.Close()
		return err
	}
	return nil
}

// session is the identity of one authenticated connection, shared by
// every request on it.
type session struct {
	login  string // authenticated end user, or "" on peer connections
	peer   string // authenticated peer server, or ""
	isPeer bool
	remote string // remote address, for log and trace context
	// w is the conn's mutex-serialized response writer.
	w *connWriter
}

// maxPipelined bounds concurrently dispatched requests per connection;
// beyond it the reader loop applies backpressure by not reading the
// next request until a handler slot frees.
const maxPipelined = 64

func (s *Server) handleConn(nc net.Conn) error {
	c := wire.NewConn(nc)
	base, err := s.handshake(c)
	if err != nil {
		return err
	}
	base.remote = nc.RemoteAddr().String()
	base.w = &connWriter{c: c, nc: nc}
	reg := s.broker.Metrics()
	depthHist := reg.Op("server.pipeline.depth")
	pipeGauge := reg.Gauge("server.pipeline.inflight")
	var wg sync.WaitGroup
	defer wg.Wait()
	sem := make(chan struct{}, maxPipelined)
	var inflight atomic.Int64
	for {
		req := new(wire.Request)
		if err := c.ReadJSON(wire.MsgRequest, req); err != nil {
			return err
		}
		if req.ID == 0 {
			// Every response is matched by its correlation ID; a request
			// without one could only be answered ambiguously.
			return fmt.Errorf("wire: %s request without correlation ID: %w", req.Op, types.ErrInvalid)
		}
		cl := &call{Server: s, session: base, req: req}
		if wire.StreamsIn(req.Op) {
			// The op's bulk data sits between this request and the next.
			// A stream that fits the read-ahead chunk is read here, so the
			// reader moves on while the handler works; a longer one goes
			// to the handler live (see recvIn).
			if err := cl.recvIn(c); err != nil {
				return err
			}
		}
		// Dispatch concurrently, bounded by maxPipelined. The depth
		// histogram records how deep the pipeline actually runs (depth
		// encoded as microseconds in the pow-2 buckets).
		depth := inflight.Add(1)
		depthHist.Observe(time.Duration(depth)*time.Microsecond, nil)
		pipeGauge.Add(1)
		cl.enqueued = time.Now()
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem; inflight.Add(-1); pipeGauge.Add(-1) }()
			defer cl.releaseIn()
			if err := cl.dispatch(); err != nil {
				// Transport failure writing the response: the writer
				// latched it and closed the conn, unblocking the reader.
				s.Logger.Errorf("conn %s: pipelined %s: %v", cl.remote, req.Op, err)
			}
		}()
		if cl.in != nil {
			// The handler reads the live stream off this conn; wait until
			// it lets go, then discard what it left unread, so framing
			// stays healthy when the handler rejects the op before
			// touching the data.
			if err := cl.in.finish(); err != nil {
				return err
			}
		}
	}
}

// handshake runs challenge–response authentication.
func (s *Server) handshake(c *wire.Conn) (*session, error) {
	nonce, err := auth.NewChallenge()
	if err != nil {
		return nil, err
	}
	if err := c.WriteJSON(wire.MsgChallenge, wire.Challenge{Server: s.name, Nonce: nonce}); err != nil {
		return nil, err
	}
	var a wire.Auth
	if err := c.ReadJSON(wire.MsgAuth, &a); err != nil {
		return nil, err
	}
	ss := &session{}
	switch {
	case a.Peer != "":
		if !s.authn.VerifyPeer(a.Peer, nonce, a.Response) {
			c.WriteJSON(wire.MsgResponse, wire.ErrResponse(types.E("auth", a.Peer, types.ErrAuth)))
			return nil, types.E("auth", a.Peer, types.ErrAuth)
		}
		ss.peer, ss.isPeer = a.Peer, true
	default:
		if !s.authn.VerifyUser(a.User, nonce, a.Response) {
			c.WriteJSON(wire.MsgResponse, wire.ErrResponse(types.E("auth", a.User, types.ErrAuth)))
			return nil, types.E("auth", a.User, types.ErrAuth)
		}
		ss.login = a.User
	}
	return ss, c.WriteJSON(wire.MsgAuthOK, wire.AuthOK{Server: s.name})
}

// localityOf classifies where a file object's clean replicas live:
// "" means local (or not a plain file), otherwise the owning peer name.
func (s *Server) localityOf(path string) string {
	o, err := s.broker.Cat.GetObject(path)
	if err != nil || o.Kind != types.KindFile {
		return ""
	}
	check := o
	if o.Container != "" {
		cont, err := s.broker.Cat.GetObject(o.Container)
		if err != nil {
			return ""
		}
		check = cont
	}
	remote := ""
	for _, r := range check.Replicas {
		if r.Status != types.ReplicaClean {
			continue
		}
		res, err := s.broker.Cat.GetResource(r.Resource)
		if err != nil || !res.Online {
			continue
		}
		if res.Server == s.name || res.Server == "" {
			// A local clean replica counts only while its resource
			// breaker passes traffic; a tripped local resource sends
			// the read to a surviving remote replica instead.
			if s.broker.Breakers().For("resource." + r.Resource).Allow() {
				return ""
			}
			continue
		}
		remote = res.Server
	}
	return remote
}

// resourceOwner names the peer owning resource, or "" when local.
func (s *Server) resourceOwner(resource string) string {
	res, err := s.broker.Cat.GetResource(resource)
	if err != nil || res.Server == "" || res.Server == s.name {
		return ""
	}
	if res.Kind == types.ResourceLogical && len(res.Members) > 0 {
		m, err := s.broker.Cat.GetResource(res.Members[0])
		if err == nil && (m.Server == "" || m.Server == s.name) {
			return ""
		}
	}
	return res.Server
}

// federate serves a get-style request for data owned by peerName:
// proxy mode relays the bytes, redirect mode hands the client the
// owning server's address. The forwarded request keeps its trace ID,
// so the same trace ID lands in both servers' records.
func (c *call) federate(peerName, user string) (any, error) {
	addr, ok := c.PeerAddr(peerName)
	if !ok {
		return nil, types.E(c.req.Op, peerName, types.ErrOffline)
	}
	if c.mode == Redirect {
		return &wire.Redirect{Server: peerName, Addr: addr}, nil
	}
	// Serving a read through a peer is the federation-level failover:
	// either the data only lives there, or the local replica's resource
	// breaker routed around a failing driver.
	c.span.Event(obs.EventFailover, "read via peer "+peerName)
	return sized(c.proxyGet(peerName, user, c.req, c.deadline, c.span))
}

// peerBreaker returns the circuit breaker guarding one federated peer.
func (s *Server) peerBreaker(name string) *resilience.Breaker {
	return s.broker.Breakers().For("peer." + name)
}

// peerDo runs one attempt against a peer: breaker gate, remaining-
// budget rewrite, pooled checkout, and outcome recording. Only
// conn-level failures (dial refused, conn dropped, I/O deadline) count
// against the breaker — a peer answering with an application error is
// alive. A transport failure also evicts the checked-out connection so
// no later federation call inherits a broken conn.
func (s *Server) peerDo(peerName, addr string, deadline time.Time, req *wire.Request, sp *obs.Span, fn func(*peerConn) error) error {
	br := s.peerBreaker(peerName)
	switch br.State() {
	case resilience.Open:
		s.broker.Metrics().Counter("federation.fastfail").Inc()
		sp.Event(obs.EventBreakerFast, "peer."+peerName)
		return types.E(req.Op, peerName, fmt.Errorf("peer breaker open: %w", types.ErrOffline))
	case resilience.HalfOpen:
		sp.Event(obs.EventBreakerProbe, "peer."+peerName)
	}
	if err := shrinkBudget(req, deadline); err != nil {
		return err
	}
	// The span the peer opens for this request becomes a child of ours,
	// so the federated hop shows up as a subtree when reassembled.
	req.Span = sp.SpanID()
	m, err := s.peerPool.Get(addr)
	if err != nil {
		if br.Failure() {
			sp.Event(obs.EventBreakerTrip, "peer."+peerName)
		}
		return types.E(req.Op, peerName, err)
	}
	pc := &peerConn{m: m, deadline: deadline}
	start := time.Now()
	err = fn(pc)
	hop := time.Since(start)
	sp.Phase(obs.PhaseFederationHop, hop)
	failed := err != nil && resilience.Transport(err)
	// Feed the transfer observatory: every peer round trip contributes
	// latency, moved bytes and transport-level outcome to the per-peer
	// history (an application error proves the peer alive).
	s.broker.Metrics().Peers().Record(peerName, "", hop, pc.bytes, failed)
	if failed {
		s.peerPool.Fail(m)
		if br.Failure() {
			sp.Event(obs.EventBreakerTrip, "peer."+peerName)
		}
	} else {
		s.peerPool.Put(m)
		br.Success()
	}
	if err != nil {
		return types.E(req.Op, peerName, err)
	}
	return nil
}

// retrier builds the federation retry loop for one request. Ops the
// wire table does not mark idempotent get exactly one attempt — a lost
// response does not prove the mutation was lost. Each retry lands as
// both a counter tick and an event on sp.
func (s *Server) retrier(op string, deadline time.Time, sp *obs.Span) resilience.Retrier {
	policy := s.retry
	if !wire.Idempotent(op) {
		policy.MaxAttempts = 1
	}
	return resilience.Retrier{
		Policy:   policy,
		Sleep:    s.sleep,
		Deadline: deadline,
		OnRetry: func(attempt int, err error) {
			s.broker.Metrics().Counter("federation.retries").Inc()
			sp.Event(obs.EventRetry, fmt.Sprintf("federation attempt %d: %v", attempt+1, err))
		},
	}
}

// shrinkBudget rewrites req's time budget to what remains before
// deadline — the budget shrinks on every federation hop, so a slow
// peer cannot stall the whole chain. An exhausted budget fails here,
// before any bytes cross the wire.
func shrinkBudget(req *wire.Request, deadline time.Time) error {
	if deadline.IsZero() {
		return nil
	}
	left := time.Until(deadline)
	if left <= 0 {
		return types.E(req.Op, "", types.ErrTimeout)
	}
	ms := left.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	req.TimeoutMillis = ms
	return nil
}

// proxy relays req — with data, when the op streams in — to peerName
// on behalf of user over a pooled peer-authenticated connection, under
// the federation retry loop, and returns the peer's success answer.
func (s *Server) proxy(peerName, user string, req *wire.Request, data []byte, deadline time.Time, sp *obs.Span) (*wire.CallResult, error) {
	addr, ok := s.PeerAddr(peerName)
	if !ok {
		return nil, types.E(req.Op, peerName, types.ErrOffline)
	}
	var res *wire.CallResult
	err := s.retrier(req.Op, deadline, sp).Do(func() (err error) {
		res, err = s.hop(peerName, addr, user, req, data, deadline, sp)
		return err
	})
	return res, err
}

// hop is one federation attempt: req goes out under peerDo's breaker,
// budget and pool discipline.
func (s *Server) hop(peerName, addr, user string, req *wire.Request, data []byte, deadline time.Time, sp *obs.Span) (*wire.CallResult, error) {
	fwd := *req
	fwd.OnBehalf = user
	var res *wire.CallResult
	err := s.peerDo(peerName, addr, deadline, &fwd, sp, func(pc *peerConn) (err error) {
		res, err = pc.call(&fwd, data)
		return err
	})
	return res, err
}

// proxyGet relays a data-returning request and returns the bytes that
// followed the peer's reply.
func (s *Server) proxyGet(peerName, user string, req *wire.Request, deadline time.Time, sp *obs.Span) ([]byte, error) {
	res, err := s.proxy(peerName, user, req, nil, deadline, sp)
	if err != nil {
		return nil, err
	}
	if !res.Resp.DataFollows {
		return nil, types.E(req.Op, peerName, types.ErrInvalid)
	}
	return res.Data, nil
}

// peerConn is one checked-out federation call slot: a pooled Mux plus
// the request's deadline. The Mux enforces the deadline per call (a
// peer that stops answering mid-exchange fails the request instead of
// hanging it) and lets many federation calls share one authenticated
// connection.
type peerConn struct {
	m        *wire.Mux
	deadline time.Time
	// bytes counts bulk payload moved on this call (either direction),
	// for the peer transfer observatory's bandwidth EWMA.
	bytes int64
}

// dialPeerMux connects and peer-authenticates to addr, wrapping the
// conn in a Mux for pooling. The zone secret is resolved from the peer
// table by address at dial time, and s.peerDial is read per dial so a
// transport swapped in by fault injection applies to new connections.
func (s *Server) dialPeerMux(addr string) (*wire.Mux, error) {
	name := s.peerNameByAddr(addr)
	s.mu.RLock()
	secret := s.peers[name].secret
	s.mu.RUnlock()
	dial := s.peerDial
	if dial == nil {
		dial = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, s.dialTimeout)
		}
	}
	nc, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c := wire.NewConn(nc)
	var ch wire.Challenge
	if err := c.ReadJSON(wire.MsgChallenge, &ch); err != nil {
		nc.Close()
		return nil, err
	}
	resp := auth.Respond(auth.DeriveKey("peer:"+s.name, secret), ch.Nonce)
	if err := c.WriteJSON(wire.MsgAuth, wire.Auth{Peer: s.name, Response: resp}); err != nil {
		nc.Close()
		return nil, err
	}
	var ok wire.AuthOK
	if err := c.ReadJSON(wire.MsgAuthOK, &ok); err != nil {
		nc.Close()
		return nil, types.E("peerauth", addr, types.ErrAuth)
	}
	return wire.NewMux(nc, c, ok.Server), nil
}

// call runs one exchange on the checked-out conn: req, then data when
// the op streams in, then the matched answer. A redirect or an error
// reply fails it.
func (p *peerConn) call(req *wire.Request, data []byte) (*wire.CallResult, error) {
	var in io.Reader
	if wire.StreamsIn(req.Op) {
		in = bytes.NewReader(data)
	}
	res, err := p.m.Call(req, in, p.deadline)
	if err != nil {
		return nil, err
	}
	if res.Redirect != nil {
		return nil, types.E(req.Op, "", types.ErrInvalid)
	}
	if !res.Resp.OK {
		return nil, res.Resp.Err()
	}
	if in != nil {
		p.bytes += int64(len(data))
	}
	p.bytes += int64(len(res.Data))
	return res, nil
}

// parseLockKind maps wire lock names.
func parseLockKind(s string) (types.LockKind, error) {
	switch strings.ToLower(s) {
	case "shared":
		return types.LockShared, nil
	case "exclusive":
		return types.LockExclusive, nil
	default:
		return types.LockNone, types.E("lock", s, types.ErrInvalid)
	}
}

// Stats builds the server stats reply.
func (s *Server) stats() wire.StatsReply {
	st := s.broker.Cat.Stats()
	return wire.StatsReply{
		Server: s.name, Objects: st.Objects, Collections: st.Collections,
		Resources: st.Resources, Users: st.Users,
	}
}

// Telemetry snapshots the broker registry for the OpStats wire op, the
// admin /metrics endpoint and the MySRB status page. Audit-ring drops
// are folded in as a gauge just before snapshotting so every exposure
// path reports them.
func (s *Server) Telemetry() wire.OpStatsReply {
	reg := s.broker.Metrics()
	reg.Gauge("audit.dropped").Set(s.broker.Cat.AuditLog().Dropped())
	s.broker.Breakers().Publish()
	pool := s.peerPool.Stats()
	return wire.OpStatsReply{Server: s.name, Snapshot: reg.Snapshot(), PeerPool: &pool}
}

// gatherTrace collects every retained span of one trace: this server's
// ring, and — when fanout is set — each zone peer's ring via OpTrace.
// Peer queries are best-effort (an unreachable peer just contributes
// nothing) and are sent without a trace ID of their own, so fetching a
// trace never pollutes the trace being fetched. Requests arriving from
// a peer answer locally only (fanout=false), which bounds the fan-out
// to one hop.
func (s *Server) gatherTrace(user, id string, fanout bool) wire.TraceReply {
	spans := s.broker.Metrics().Traces().ForTrace(id)
	if fanout {
		s.mu.RLock()
		names := make([]string, 0, len(s.peers))
		for n := range s.peers {
			names = append(names, n)
		}
		s.mu.RUnlock()
		sort.Strings(names)
		for _, pn := range names {
			args, err := json.Marshal(wire.TraceArgs{ID: id})
			if err != nil {
				continue
			}
			req := &wire.Request{Op: wire.OpTrace, Args: args}
			res, err := s.proxy(pn, user, req, nil, time.Time{}, nil)
			if err != nil {
				continue
			}
			var rep wire.TraceReply
			if json.Unmarshal(res.Resp.Body, &rep) == nil {
				spans = append(spans, rep.Spans...)
			}
		}
	}
	return wire.TraceReply{Server: s.name, Spans: spans}
}

// Readiness reports whether the server is fully serviceable and a set
// of detail lines. Degrading conditions: any open circuit breaker (a
// peer or storage resource being routed around), an offline local
// resource, or a wedged repair engine (tasks pending with no worker
// alive to drain them). When a repair engine is attached, the detail
// always carries one informational line with the queue backlog and the
// oldest task's age — a backlog alone is normal operation, not a
// degradation; likewise a firing SLO rule adds a "warn:" line without
// degrading (an objective miss is an alerting concern, not downtime).
// The admin /healthz endpoint turns !ok into HTTP 503.
func (s *Server) Readiness() (bool, []string) {
	return readiness(s.broker, s.name)
}

// readiness is the broker-level readiness check behind Readiness,
// shared with the standalone admin handler mysrbd mounts (which has no
// Server).
func readiness(b *core.Broker, name string) (bool, []string) {
	var degraded []string
	for key, st := range b.Breakers().States() {
		if st == resilience.Open {
			degraded = append(degraded, "breaker "+key+" open")
		}
	}
	for _, r := range b.Cat.Resources() {
		if r.Kind != types.ResourcePhysical || r.Online {
			continue
		}
		if r.Server == "" || r.Server == name {
			degraded = append(degraded, "resource "+r.Name+" offline")
		}
	}
	eng := b.Repair()
	if eng != nil && eng.Wedged() {
		degraded = append(degraded, "repair engine wedged (non-empty queue, no workers alive)")
	}
	sort.Strings(degraded)
	detail := degraded
	if eng != nil {
		st := eng.Status()
		line := fmt.Sprintf("repair backlog=%d oldest_age=%s", st.Backlog, st.OldestAge.Truncate(time.Second))
		if st.Paused {
			line += " paused"
		}
		detail = append(detail, line)
	}
	for _, st := range b.SLO().Status() {
		if st.Violating {
			detail = append(detail, fmt.Sprintf("warn: slo %s violating (burn %.0f%%)", st.Rule, st.BurnPct))
		}
	}
	// Shard replication lag mirrors the repair-backlog treatment: when a
	// replag SLO rule is declared and a shard's exported lag gauge
	// exceeds its threshold, warn without degrading — lag is an alerting
	// concern, not downtime. The gauges (refreshed by the shard-sync and
	// advisor jobs) are read as exported, so the probe agrees with what
	// /metrics and the SLO evaluator saw.
	if th, declared := replagThreshold(b.SLO()); declared {
		gauges := b.Metrics().Snapshot().Gauges
		var warns []string
		for name, v := range gauges {
			if strings.HasPrefix(name, "mcat.shard.") && strings.HasSuffix(name, ".replag_seconds") && float64(v) >= th {
				warns = append(warns, fmt.Sprintf("warn: %s at %ds exceeds slo threshold %.0fs (replication lag)", name, v, th))
			}
		}
		sort.Strings(warns)
		detail = append(detail, warns...)
	}
	return len(degraded) == 0, detail
}

// replagThreshold returns the tightest declared replag_seconds ceiling,
// and whether any replag rule exists at all.
func replagThreshold(ev *obs.SLOEvaluator) (float64, bool) {
	th, found := 0.0, false
	for _, r := range ev.Rules() {
		if r.Metric != obs.SLOReplag || !r.Less {
			continue
		}
		if !found || r.Threshold < th {
			th, found = r.Threshold, true
		}
	}
	return th, found
}

// repairStatus snapshots the repair engine for the repairstatus wire op
// and the admin /repair endpoint.
func (s *Server) repairStatus() wire.RepairStatusReply {
	return repairStatusOf(s.broker, s.name)
}

func repairStatusOf(b *core.Broker, name string) wire.RepairStatusReply {
	rep := wire.RepairStatusReply{Server: name}
	eng := b.Repair()
	if eng == nil {
		return rep
	}
	st := eng.Status()
	rep.Enabled = true
	rep.Status = wire.RepairStatus{
		Running:      st.Running,
		Paused:       st.Paused,
		Wedged:       st.Wedged,
		Workers:      st.Workers,
		WorkersAlive: st.WorkersAlive,
		Backlog:      st.Backlog,
		OldestAge:    st.OldestAge,
		Done:         st.Done,
		Failed:       st.Failed,
		Retries:      st.Retries,
	}
	for _, j := range st.Jobs {
		rep.Status.Jobs = append(rep.Status.Jobs, wire.RepairJobStatus{
			Name:     j.Name,
			Interval: j.Interval,
			Runs:     j.Runs,
			Errors:   j.Errors,
			LastRun:  j.LastRun,
			LastErr:  j.LastErr,
		})
	}
	return rep
}

// staleFraction: a member's window is flagged stale when its retained
// rollup history covers less than this fraction of the requested
// window (a just-started server, or retention shorter than the ask).
const staleFraction = 0.8

// localGridMember builds this server's own contribution to a grid
// snapshot: the windowed view of its registry, honestly flagged stale
// when the ring doesn't span the window yet.
func (s *Server) localGridMember(window time.Duration) wire.GridMember {
	ws := s.broker.Metrics().Window(window)
	m := wire.GridMember{Server: s.name, Window: ws}
	if ws.CoveredSeconds < staleFraction*ws.WindowSeconds {
		m.Stale = true
	}
	return m
}

// gatherGridStat merges the zone's windowed stats: this server's view
// plus — when fanout is set — every peer's, gathered best-effort with
// LocalOnly set so the fan-out is bounded to one hop (the same shape
// as gatherTrace). Unreachable peers keep their member slot with the
// error instead of silently vanishing, so a partial aggregate is
// visibly partial. The grid aggregate recomputes quantiles from the
// merged bucket deltas of the reachable members.
func (s *Server) gatherGridStat(user string, window time.Duration, fanout bool, deadline time.Time, sp *obs.Span) wire.GridStatReply {
	if window <= 0 {
		window = 5 * time.Minute
	}
	members := []wire.GridMember{s.localGridMember(window)}
	if fanout {
		s.mu.RLock()
		names := make([]string, 0, len(s.peers))
		for n := range s.peers {
			names = append(names, n)
		}
		s.mu.RUnlock()
		sort.Strings(names)
		for _, pn := range names {
			args, err := json.Marshal(wire.GridStatArgs{WindowSeconds: int64(window / time.Second), LocalOnly: true})
			if err != nil {
				continue
			}
			// One attempt, no retry loop: partial answers are the point
			// of the gather, so a dead peer must cost one failed dial
			// inside the caller's deadline (and a breaker fast-fail on
			// later scrapes), not a backoff cycle.
			req := &wire.Request{Op: wire.OpGridStat, Args: args}
			addr, _ := s.PeerAddr(pn)
			res, err := s.hop(pn, addr, user, req, nil, deadline, sp)
			if err != nil {
				members = append(members, wire.GridMember{Server: pn, Unreachable: true, Err: err.Error()})
				continue
			}
			var rep wire.GridStatReply
			if err := json.Unmarshal(res.Resp.Body, &rep); err != nil || len(rep.Members) == 0 {
				members = append(members, wire.GridMember{Server: pn, Unreachable: true, Err: "malformed grid-stat reply"})
				continue
			}
			m := rep.Members[0]
			m.Server = pn
			members = append(members, m)
		}
	}
	wins := make([]obs.WindowStats, 0, len(members))
	for _, m := range members {
		if !m.Unreachable {
			wins = append(wins, m.Window)
		}
	}
	return wire.GridStatReply{
		Server:        s.name,
		WindowSeconds: window.Seconds(),
		Members:       members,
		Grid:          obs.MergeWindows(wins),
	}
}

// alerts snapshots the SLO evaluator for the alerts wire op and the
// admin /alerts endpoint.
func (s *Server) alerts() wire.AlertsReply {
	return alertsOf(s.broker, s.name)
}

func alertsOf(b *core.Broker, name string) wire.AlertsReply {
	rep := wire.AlertsReply{Server: name}
	ev := b.SLO()
	if ev == nil {
		return rep
	}
	rep.Enabled = true
	rep.Rules = ev.Status()
	rep.Alerts = ev.AlertLog().Recent(0)
	return rep
}

func (s *Server) incidents() wire.IncidentsReply {
	return incidentsOf(s.broker, s.name)
}

func incidentsOf(b *core.Broker, name string) wire.IncidentsReply {
	rep := wire.IncidentsReply{Server: name}
	ir := b.Incidents()
	if ir == nil {
		return rep
	}
	rep.Enabled = true
	rep.Incidents = ir.List()
	return rep
}

func (s *Server) incidentGet(id string) (wire.IncidentGetReply, error) {
	ir := s.broker.Incidents()
	if ir == nil {
		return wire.IncidentGetReply{}, types.E(wire.OpIncidentGet, id, fmt.Errorf("flight recorder disabled: %w", types.ErrUnsupported))
	}
	meta, files, err := ir.Get(id)
	if err != nil {
		return wire.IncidentGetReply{}, types.E(wire.OpIncidentGet, id, fmt.Errorf("%v: %w", err, types.ErrNotFound))
	}
	return wire.IncidentGetReply{Server: s.name, Meta: meta, Files: files}, nil
}

func (s *Server) incidentCapture(reason string) (wire.IncidentCaptureReply, error) {
	ir := s.broker.Incidents()
	if ir == nil {
		return wire.IncidentCaptureReply{}, types.E(wire.OpIncidentCapture, "", fmt.Errorf("flight recorder disabled: %w", types.ErrUnsupported))
	}
	if reason == "" {
		reason = "manual"
	}
	meta, err := ir.Capture(time.Now(), "manual", "manual", reason, 0)
	if err != nil {
		return wire.IncidentCaptureReply{}, types.E(wire.OpIncidentCapture, "", err)
	}
	return wire.IncidentCaptureReply{Server: s.name, Meta: meta}, nil
}

func (s *Server) peersReply() wire.PeersReply {
	return peersOf(s.broker, s.name)
}

func peersOf(b *core.Broker, name string) wire.PeersReply {
	return wire.PeersReply{Server: name, Peers: b.Metrics().Peers().Snapshot()}
}

// heatRouter is the slice of the shard Router the heat surfaces use.
// Declared as an interface so the monolithic catalog degrades to a
// keys/objects-only reply.
type heatRouter interface {
	Statuses() []shard.Status
	Advise(rows []obs.HeatStat, now time.Time) shard.Plan
	LastPlan() *shard.Plan
}

func (s *Server) heat() wire.HeatReply {
	return heatOf(s.broker, s.name)
}

// heatOf builds the heat-observatory reply: top-K tables always; shard
// statuses and the advisor plan only when the catalog is sharded. The
// advisor job keeps a plan stored on the router; when none exists yet
// (job not wired, or first run pending) a fresh one is computed so the
// reply is never planless on a sharded catalog.
func heatOf(b *core.Broker, name string) wire.HeatReply {
	reg := b.Metrics()
	rep := wire.HeatReply{
		Server:  name,
		Keys:    reg.HeatKeys().Snapshot(),
		Objects: reg.HeatObjects().Snapshot(),
	}
	if rt, ok := b.Cat.(heatRouter); ok {
		rep.Shards = rt.Statuses()
		p := rt.LastPlan()
		if p == nil {
			fresh := rt.Advise(rep.Keys, time.Now())
			p = &fresh
		}
		rep.Plan = p
	}
	return rep
}
