// Package client is the SRB client library: it speaks the wire
// protocol to any federated server, authenticates with
// challenge–response (the password never crosses the wire), follows
// federation redirects transparently, and offers the Scommand-style
// operation set plus parallel multi-stream bulk transfer.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/storage"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// DialTimeout bounds connection establishment. It is the same tunable
// the server uses for peer dials (resilience.DialTimeout).
const DialTimeout = resilience.DialTimeout

// Client is one authenticated identity against an SRB server, backed
// by a bounded connection pool of multiplexed connections. Methods are
// safe for concurrent use; against a mux-capable server concurrent
// calls pipeline over shared connections instead of queueing, and
// ParallelGet opens dedicated connections for concurrent bulk streams.
type Client struct {
	mu sync.Mutex
	// pool owns the authenticated connections; checkout dials lazily
	// and transport errors evict, so reconnect-on-error falls out of
	// the checkout path.
	pool *wire.Pool
	addr string
	// server is the federation name reported at handshake.
	server string

	user     string
	password string

	// dial allows tests to shape connections.
	dial func(addr string) (net.Conn, error)

	// timeout, when set, bounds each logical call; the remaining budget
	// rides in wire.Request.TimeoutMillis so every server on the
	// federation path inherits it.
	timeout time.Duration
	// retry shapes automatic retries. Only idempotent (read-only) ops
	// are ever retried; see wire.Idempotent.
	retry resilience.Policy
	sleep func(time.Duration)
	randf func() float64
	// retries counts retry attempts actually performed (tests and the
	// Scommand -v output read it via Retries). Atomic: calls overlap.
	retries atomic.Int64
	// lastTrace remembers the trace ID minted for the most recent
	// logical call, so callers can fetch its span tree afterwards.
	lastTrace string
	// history, when set, receives one per-server transfer observation
	// per logical call — the client-side feed of the peer observatory.
	history *obs.PeerHistory
	// metrics, when set, receives client-side latency-decomposition
	// phases (serialize, pool checkout, mux in-flight, dial, batch hold)
	// as phase.client.* ops, plus the connection pool's wire.pool.*
	// gauges and checkout-wait histogram.
	metrics atomic.Pointer[obs.Registry]
}

// Dial connects and authenticates to the server at addr.
func Dial(addr, user, password string) (*Client, error) {
	return DialWith(addr, user, password, nil)
}

// DialWith is Dial with a custom transport dialer (nil = TCP).
func DialWith(addr, user, password string, dialer func(addr string) (net.Conn, error)) (*Client, error) {
	if dialer == nil {
		dialer = func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, DialTimeout)
		}
	}
	cl := &Client{
		addr: addr, user: user, password: password, dial: dialer,
		retry: resilience.DefaultPolicy, sleep: time.Sleep,
	}
	cl.pool = wire.NewPool(wire.PoolConfig{Dial: cl.dialMux, Prefix: "wire.pool"})
	// Authenticate eagerly so bad credentials and dead servers fail at
	// Dial, matching the one-conn-per-client behaviour this replaces.
	m, err := cl.pool.Get(addr)
	if err != nil {
		cl.pool.Close()
		return nil, err
	}
	cl.server = m.Server()
	cl.pool.Put(m)
	return cl, nil
}

// dialMux establishes and authenticates one pooled connection.
func (cl *Client) dialMux(addr string) (*wire.Mux, error) {
	start := time.Now()
	defer func() { cl.phase("conn", obs.PhaseDial, time.Since(start), "") }()
	nc, err := cl.dial(addr)
	if err != nil {
		return nil, types.E("dial", addr, err)
	}
	c := wire.NewConn(nc)
	var ch wire.Challenge
	if err := c.ReadJSON(wire.MsgChallenge, &ch); err != nil {
		nc.Close()
		return nil, types.E("handshake", addr, err)
	}
	resp := auth.Respond(auth.DeriveKey(cl.user, cl.password), ch.Nonce)
	if err := c.WriteJSON(wire.MsgAuth, wire.Auth{User: cl.user, Response: resp}); err != nil {
		nc.Close()
		return nil, types.E("handshake", addr, err)
	}
	var ok wire.AuthOK
	if err := c.ReadJSON(wire.MsgAuthOK, &ok); err != nil {
		nc.Close()
		return nil, types.E("login", cl.user, types.ErrAuth)
	}
	return wire.NewMux(nc, c, ok.Server), nil
}

// PoolStats reports the connection pool's occupancy and lifetime dial,
// eviction and idle-reap counts.
func (cl *Client) PoolStats() wire.PoolStats { return cl.pool.Stats() }

// SetTimeout bounds each logical call (0 = unbounded). The budget is
// carried on the wire, so federation hops enforce what remains of it.
func (cl *Client) SetTimeout(d time.Duration) {
	cl.mu.Lock()
	cl.timeout = d
	cl.mu.Unlock()
}

// SetRetryPolicy tunes automatic retries of idempotent operations.
// MaxAttempts of 1 disables them.
func (cl *Client) SetRetryPolicy(p resilience.Policy) {
	cl.mu.Lock()
	if p.MaxAttempts > 0 {
		cl.retry = p
	}
	cl.mu.Unlock()
}

// SetPeerHistory attaches a transfer observatory table: every logical
// call then records its latency, payload bytes and transport outcome
// against the serving server's name (nil detaches).
func (cl *Client) SetPeerHistory(ph *obs.PeerHistory) {
	cl.mu.Lock()
	cl.history = ph
	cl.mu.Unlock()
}

// SetMetrics attaches a telemetry registry: every call then records its
// client-side latency phases (phase.client.<op>.<phase> histograms with
// trace-ID tail exemplars) and the connection pool exports its
// wire.pool.* stats into the same registry.
func (cl *Client) SetMetrics(reg *obs.Registry) {
	cl.metrics.Store(reg)
	cl.pool.SetMetrics(reg)
}

// phase records one client-side latency phase (no-op without an
// attached registry).
func (cl *Client) phase(op, name string, d time.Duration, trace string) {
	reg := cl.metrics.Load()
	if reg == nil {
		return
	}
	reg.Op(obs.PhasePrefix+"client."+op+"."+name).ObserveTrace(d, nil, trace)
}

// Retries reports how many retry attempts this client has performed.
func (cl *Client) Retries() int64 {
	return cl.retries.Load()
}

// Close drops every pooled connection.
func (cl *Client) Close() error {
	cl.pool.Close()
	return nil
}

// Server returns the federation name of the currently connected server.
func (cl *Client) Server() string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.server
}

// Addr returns the address currently connected to (it changes after a
// federation redirect).
func (cl *Client) Addr() string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.addr
}

// call performs one request/response cycle. sendData, when non-nil, is
// streamed after the request. The response body is decoded into out
// (when non-nil); a data stream, when announced, is returned.
func (cl *Client) call(op string, args any, sendData []byte, out any) ([]byte, error) {
	return cl.callTicket(op, args, sendData, out, "")
}

// callTicket is call with an optional delegated-access ticket attached.
// Each logical call mints one trace ID, kept across redirect and retry
// attempts, so the servers involved all record it under the same trace.
//
// Idempotent operations that fail with a retryable error (offline,
// timeout, transport) are retried under the client's backoff policy; a
// transport error additionally reconnects first, since the conn is
// poisoned mid-protocol. Mutating ops get exactly one attempt — a lost
// response does not prove the mutation was lost.
func (cl *Client) callTicket(op string, args any, sendData []byte, out any, ticket string) ([]byte, error) {
	trace := obs.NewTraceID()
	cl.mu.Lock()
	cl.lastTrace = trace
	timeout, policy := cl.timeout, cl.retry
	sleep, randf, history := cl.sleep, cl.randf, cl.history
	cl.mu.Unlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if !wire.Idempotent(op) {
		policy.MaxAttempts = 1
	}
	// attempt rides in wire.Request.Attempt so the serving server can
	// record a retry event on the span of each re-attempt — client-side
	// retries become visible in the trace without a client-side ring.
	attempt := 0
	r := resilience.Retrier{
		Policy: policy, Sleep: sleep, Rand: randf, Deadline: deadline,
		OnRetry: func(int, error) { cl.retries.Add(1); attempt++ },
	}
	var result []byte
	start := time.Now()
	err := r.Do(func() error {
		// A transport error evicted the failed conn inside callOnce, so
		// the next attempt's checkout dials a clean connection —
		// reconnect-on-transport-error lives in the pool now.
		data, err := cl.callRedirect(op, args, sendData, out, ticket, trace, attempt, deadline)
		if err != nil {
			return err
		}
		result = data
		return nil
	})
	// Feed the observatory with the whole logical call (retries and
	// redirects included — that is the latency the user experienced).
	history.Record(cl.Server(), "", time.Since(start),
		int64(len(result)+len(sendData)), err != nil && resilience.Transport(err))
	return result, err
}

// callRedirect performs one attempt, following federation redirects.
func (cl *Client) callRedirect(op string, args any, sendData []byte, out any, ticket, trace string, attempt int, deadline time.Time) ([]byte, error) {
	addr := cl.Addr()
	for redirects := 0; ; redirects++ {
		data, redirect, err := cl.callOnce(addr, op, args, sendData, out, ticket, trace, attempt, deadline)
		if err != nil {
			return nil, err
		}
		if redirect == nil {
			return data, nil
		}
		if redirects >= 4 {
			return nil, types.E(op, redirect.Addr, types.ErrInvalid)
		}
		// Transparent federation redirect: switch addresses and retry
		// (the pool dials the new server on checkout — single sign-on
		// means the same credential works on every zone server). The
		// switch sticks so later calls start at the owning server.
		addr = redirect.Addr
		cl.mu.Lock()
		cl.addr = addr
		cl.mu.Unlock()
	}
}

func (cl *Client) callOnce(addr, op string, args any, sendData []byte, out any, ticket, trace string, attempt int, deadline time.Time) ([]byte, *wire.Redirect, error) {
	serStart := time.Now()
	raw, err := json.Marshal(args)
	cl.phase(op, obs.PhaseSerialize, time.Since(serStart), trace)
	if err != nil {
		return nil, nil, err
	}
	req := wire.Request{Op: op, Args: raw, Ticket: ticket, Trace: trace, Attempt: attempt}
	if !deadline.IsZero() {
		// The wire budget tells the server chain how long this call may
		// take; the Mux enforces it locally so a stalled server cannot
		// hang the client past it.
		left := time.Until(deadline)
		if left <= 0 {
			return nil, nil, types.E(op, "", types.ErrTimeout)
		}
		ms := left.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMillis = ms
	}
	coStart := time.Now()
	m, err := cl.pool.Get(addr)
	cl.phase(op, obs.PhasePoolCheckout, time.Since(coStart), trace)
	if err != nil {
		return nil, nil, err
	}
	var data io.Reader
	if sendData != nil {
		data = bytes.NewReader(sendData)
	}
	callStart := time.Now()
	res, err := m.Call(&req, data, deadline)
	cl.phase(op, obs.PhaseMuxInflight, time.Since(callStart), trace)
	if err != nil {
		// Evict only broken conns; a call timeout leaves the connection
		// healthy (the late response is discarded by ID).
		if m.Dead() {
			cl.pool.Fail(m)
		} else {
			cl.pool.Put(m)
		}
		return nil, nil, types.E(op, "", err)
	}
	cl.pool.Put(m)
	cl.mu.Lock()
	cl.server = m.Server()
	cl.mu.Unlock()
	if res.Redirect != nil {
		return nil, res.Redirect, nil
	}
	resp := res.Resp
	if !resp.OK {
		return nil, nil, resp.Err()
	}
	if out != nil && len(resp.Body) > 0 {
		if err := json.Unmarshal(resp.Body, out); err != nil {
			return nil, nil, err
		}
	}
	return res.Data, nil, nil
}

// ---- Scommand-style API ----

// Mkdir creates a collection (Smkdir).
func (cl *Client) Mkdir(path string) error {
	_, err := cl.call(wire.OpMkdir, wire.PathArgs{Path: path}, nil, nil)
	return err
}

// RmColl removes an empty collection (Srmdir).
func (cl *Client) RmColl(path string) error {
	_, err := cl.call(wire.OpRmColl, wire.PathArgs{Path: path}, nil, nil)
	return err
}

// List lists a collection (Sls).
func (cl *Client) List(path string) ([]types.Stat, error) {
	var out []types.Stat
	_, err := cl.call(wire.OpList, wire.PathArgs{Path: path}, nil, &out)
	return out, err
}

// Stat describes a path.
func (cl *Client) Stat(path string) (types.Stat, error) {
	var out types.Stat
	_, err := cl.call(wire.OpStat, wire.PathArgs{Path: path}, nil, &out)
	return out, err
}

// GetObject fetches the full catalog record of an object.
func (cl *Client) GetObject(path string) (types.DataObject, error) {
	var out types.DataObject
	_, err := cl.call(wire.OpGetObject, wire.PathArgs{Path: path}, nil, &out)
	return out, err
}

// PutOpts parameterise Put.
type PutOpts struct {
	Resource  string
	Container string
	DataType  string
	Meta      []types.AVU
}

// Put ingests data at path (Sput).
func (cl *Client) Put(path string, data []byte, opts PutOpts) (types.DataObject, error) {
	var out types.DataObject
	args := wire.IngestArgs{
		Path: path, Resource: opts.Resource, Container: opts.Container,
		DataType: opts.DataType, Meta: opts.Meta,
	}
	if data == nil {
		data = []byte{}
	}
	_, err := cl.call(wire.OpIngest, args, data, &out)
	return out, err
}

// Reput replaces an object's contents, keeping its metadata.
func (cl *Client) Reput(path string, data []byte) error {
	if data == nil {
		data = []byte{}
	}
	_, err := cl.call(wire.OpReingest, wire.PathArgs{Path: path}, data, nil)
	return err
}

// Get retrieves an object's contents (Sget).
func (cl *Client) Get(path string) ([]byte, error) {
	return cl.call(wire.OpGet, wire.PathArgs{Path: path}, nil, nil)
}

// GetRange reads length bytes at offset; length < 0 reads to the end.
func (cl *Client) GetRange(path string, offset, length int64) ([]byte, error) {
	return cl.call(wire.OpReadRange, wire.RangeArgs{Path: path, Offset: offset, Length: length}, nil, nil)
}

// ParallelGet retrieves an object over streams concurrent connections,
// each fetching a contiguous range — SRB's parallel bulk transfer.
func (cl *Client) ParallelGet(path string, streams int) ([]byte, error) {
	st, err := cl.Stat(path)
	if err != nil {
		return nil, err
	}
	size := st.Size
	if streams < 1 {
		streams = 1
	}
	if int64(streams) > size {
		streams = int(size)
	}
	if streams <= 1 || size == 0 {
		return cl.Get(path)
	}
	out := make([]byte, size)
	chunk := (size + int64(streams) - 1) / int64(streams)
	errs := make(chan error, streams)
	cl.mu.Lock()
	timeout, retry := cl.timeout, cl.retry
	cl.mu.Unlock()
	for i := 0; i < streams; i++ {
		off := int64(i) * chunk
		length := chunk
		if off+length > size {
			length = size - off
		}
		go func(off, length int64) {
			// Each stream is its own authenticated connection and
			// inherits the parent's resilience knobs.
			sub, err := DialWith(cl.Addr(), cl.user, cl.password, cl.dial)
			if err != nil {
				errs <- err
				return
			}
			defer sub.Close()
			sub.SetTimeout(timeout)
			sub.SetRetryPolicy(retry)
			data, err := sub.GetRange(path, off, length)
			if err != nil {
				errs <- err
				return
			}
			if int64(len(data)) != length {
				errs <- types.E("parallelget", path, fmt.Errorf("short range read (%d of %d)", len(data), length))
				return
			}
			copy(out[off:], data)
			errs <- nil
		}(off, length)
	}
	for i := 0; i < streams; i++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Replicate adds a replica on resource (Sreplicate).
func (cl *Client) Replicate(path, resource string) (types.Replica, error) {
	var out types.Replica
	_, err := cl.call(wire.OpReplicate, wire.ReplicateArgs{Path: path, Resource: resource}, nil, &out)
	return out, err
}

// Delete removes an object (Srm).
func (cl *Client) Delete(path string) error {
	_, err := cl.call(wire.OpDelete, wire.PathArgs{Path: path}, nil, nil)
	return err
}

// DeleteReplica removes one replica.
func (cl *Client) DeleteReplica(path string, number int) error {
	_, err := cl.call(wire.OpDeleteReplica, wire.ReplicaArgs{Path: path, Number: number}, nil, nil)
	return err
}

// Move renames an object or collection (Smv).
func (cl *Client) Move(src, dst string) error {
	_, err := cl.call(wire.OpMove, wire.MoveArgs{Src: src, Dst: dst}, nil, nil)
	return err
}

// Copy copies an object or collection (Scp).
func (cl *Client) Copy(src, dst, resource string) error {
	_, err := cl.call(wire.OpCopy, wire.CopyArgs{Src: src, Dst: dst, Resource: resource}, nil, nil)
	return err
}

// Link creates a soft link (Sln).
func (cl *Client) Link(target, linkPath string) error {
	_, err := cl.call(wire.OpLink, wire.LinkArgs{Target: target, LinkPath: linkPath}, nil, nil)
	return err
}

// AddMeta attaches a metadata triplet.
func (cl *Client) AddMeta(path string, class types.MetaClass, avu types.AVU) error {
	_, err := cl.call(wire.OpAddMeta, wire.MetaArgs{Path: path, Class: int(class), AVU: avu}, nil, nil)
	return err
}

// GetMeta fetches one metadata class.
func (cl *Client) GetMeta(path string, class types.MetaClass) ([]types.AVU, error) {
	var out []types.AVU
	_, err := cl.call(wire.OpGetMeta, wire.GetMetaArgs{Path: path, Class: int(class)}, nil, &out)
	return out, err
}

// Annotate adds commentary.
func (cl *Client) Annotate(path string, ann types.Annotation) error {
	_, err := cl.call(wire.OpAnnotate, wire.AnnotateArgs{Path: path, Ann: ann}, nil, nil)
	return err
}

// Annotations lists commentary.
func (cl *Client) Annotations(path string) ([]types.Annotation, error) {
	var out []types.Annotation
	_, err := cl.call(wire.OpAnnotations, wire.PathArgs{Path: path}, nil, &out)
	return out, err
}

// Query runs a conjunctive metadata query.
func (cl *Client) Query(q mcat.Query) ([]mcat.Hit, error) {
	hits, _, err := cl.QueryPartial(q)
	return hits, err
}

// QueryPartial is Query with partial-result reporting: partial names
// the catalog shards (as "shard-N") that missed the scatter-gather
// deadline or were stale followers, whose hits are therefore missing.
func (cl *Client) QueryPartial(q mcat.Query) ([]mcat.Hit, []string, error) {
	var out wire.QueryReply
	_, err := cl.call(wire.OpQuery, wire.QueryArgs{Q: q}, nil, &out)
	return out.Hits, out.Partial, err
}

// Shards reports the server's catalog shard statuses (one implicit
// leader row when the catalog is monolithic).
func (cl *Client) Shards() (wire.ShardsReply, error) {
	var out wire.ShardsReply
	_, err := cl.call(wire.OpShards, wire.ShardsArgs{}, nil, &out)
	return out, err
}

// ShardPull fetches shard shardIdx's replication entries after sequence
// after from a leader daemon (peer/admin only): journal lines, or a
// full snapshot when the follower is too far behind the retained log.
func (cl *Client) ShardPull(shardIdx int, after uint64) (wire.ShardPullReply, error) {
	var out wire.ShardPullReply
	_, err := cl.call(wire.OpShardPull, wire.ShardPullArgs{Shard: shardIdx, After: after}, nil, &out)
	return out, err
}

// QueryAttrNames fetches the queryable attribute names under scope.
func (cl *Client) QueryAttrNames(scope string) ([]string, error) {
	var out []string
	_, err := cl.call(wire.OpQueryAttrs, wire.PathArgs{Path: scope}, nil, &out)
	return out, err
}

// Chmod grants a permission level ("none", "read", "annotate", "write",
// "own", "curate") to a grantee.
func (cl *Client) Chmod(path, grantee, level string) error {
	_, err := cl.call(wire.OpChmod, wire.ChmodArgs{Path: path, Grantee: grantee, Level: level}, nil, nil)
	return err
}

// Lock places a "shared" or "exclusive" lock.
func (cl *Client) Lock(path, kind string, ttl time.Duration) error {
	_, err := cl.call(wire.OpLock, wire.LockArgs{Path: path, Kind: kind, TTLSeconds: int64(ttl / time.Second)}, nil, nil)
	return err
}

// Unlock removes the caller's lock.
func (cl *Client) Unlock(path string) error {
	_, err := cl.call(wire.OpUnlock, wire.PathArgs{Path: path}, nil, nil)
	return err
}

// Pin protects a replica from cache purging.
func (cl *Client) Pin(path, resource string, ttl time.Duration) error {
	_, err := cl.call(wire.OpPin, wire.PinArgs{Path: path, Resource: resource, TTLSeconds: int64(ttl / time.Second)}, nil, nil)
	return err
}

// Unpin removes the caller's pin.
func (cl *Client) Unpin(path, resource string) error {
	_, err := cl.call(wire.OpUnpin, wire.PinArgs{Path: path, Resource: resource}, nil, nil)
	return err
}

// Checkout takes an object out for editing.
func (cl *Client) Checkout(path string) error {
	_, err := cl.call(wire.OpCheckout, wire.PathArgs{Path: path}, nil, nil)
	return err
}

// Checkin stores new contents, preserving the old as a version.
func (cl *Client) Checkin(path string, data []byte, comment string) error {
	if data == nil {
		data = []byte{}
	}
	_, err := cl.call(wire.OpCheckin, wire.CheckinArgs{Path: path, Comment: comment}, data, nil)
	return err
}

// RegisterURL registers a URL object.
func (cl *Client) RegisterURL(path, url string) (types.DataObject, error) {
	var out types.DataObject
	_, err := cl.call(wire.OpRegisterURL, wire.RegisterURLArgs{Path: path, URL: url}, nil, &out)
	return out, err
}

// RegisterSQL registers a SQL query object.
func (cl *Client) RegisterSQL(path string, spec types.SQLSpec) (types.DataObject, error) {
	var out types.DataObject
	_, err := cl.call(wire.OpRegisterSQL, wire.RegisterSQLArgs{Path: path, Spec: spec}, nil, &out)
	return out, err
}

// ExecSQL executes a registered SQL object with an optional suffix.
func (cl *Client) ExecSQL(path, suffix string) ([]byte, error) {
	return cl.call(wire.OpExecSQL, wire.ExecSQLArgs{Path: path, Suffix: suffix}, nil, nil)
}

// Invoke runs a method object with extra arguments.
func (cl *Client) Invoke(path string, args []string) ([]byte, error) {
	return cl.call(wire.OpInvoke, wire.InvokeArgs{Path: path, Args: args}, nil, nil)
}

// MkContainer creates a container on a resource.
func (cl *Client) MkContainer(path, resource string) (types.DataObject, error) {
	var out types.DataObject
	_, err := cl.call(wire.OpMkContainer, wire.ContainerArgs{Path: path, Resource: resource}, nil, &out)
	return out, err
}

// SyncContainer refreshes dirty container replicas.
func (cl *Client) SyncContainer(path string) (int, error) {
	var out wire.CountReply
	_, err := cl.call(wire.OpSyncContainer, wire.PathArgs{Path: path}, nil, &out)
	return out.N, err
}

// Extract runs a metadata extraction method on the server.
func (cl *Client) Extract(path, method, from string) (int, error) {
	var out wire.CountReply
	_, err := cl.call(wire.OpExtract, wire.ExtractArgs{Path: path, Method: method, From: from}, nil, &out)
	return out.N, err
}

// IssueTicket mints a delegated-access ticket for path at the given
// level ("read", ...), valid for uses redemptions (negative =
// unlimited) and ttl. The caller must hold Own on the path.
func (cl *Client) IssueTicket(path, level string, uses int, ttl time.Duration) (string, error) {
	var out wire.TicketReply
	_, err := cl.call(wire.OpIssueTicket, wire.TicketArgs{
		Path: path, Level: level, Uses: uses, TTLSeconds: int64(ttl / time.Second),
	}, nil, &out)
	return out.ID, err
}

// GetWithTicket retrieves an object using a delegated-access ticket,
// independent of the caller's own grants.
func (cl *Client) GetWithTicket(path, ticket string) ([]byte, error) {
	return cl.callTicket(wire.OpGet, wire.PathArgs{Path: path}, nil, nil, ticket)
}

// ShadowList lists entries inside a registered (shadow) directory.
func (cl *Client) ShadowList(path, rel string) ([]storage.FileInfo, error) {
	var out []storage.FileInfo
	_, err := cl.call(wire.OpShadowList, wire.ShadowArgs{Path: path, Rel: rel}, nil, &out)
	return out, err
}

// ShadowOpen reads one file inside a shadow directory's cone.
func (cl *Client) ShadowOpen(path, rel string) ([]byte, error) {
	return cl.call(wire.OpShadowOpen, wire.ShadowArgs{Path: path, Rel: rel}, nil, nil)
}

// AddUser registers an account with its password (administrators only).
func (cl *Client) AddUser(name, domain, password string, admin bool) error {
	_, err := cl.call(wire.OpAddUser, wire.AddUserArgs{Name: name, Domain: domain, Password: password, Admin: admin}, nil, nil)
	return err
}

// Audit queries the audit trail (administrators only); limit bounds
// the tail returned (0 = everything).
func (cl *Client) Audit(user, op, target string, limit int) ([]types.AuditRecord, error) {
	var out []types.AuditRecord
	_, err := cl.call(wire.OpAudit, wire.AuditArgs{User: user, Op: op, Target: target, Limit: limit}, nil, &out)
	return out, err
}

// Resources lists the registered storage resources.
func (cl *Client) Resources() ([]types.Resource, error) {
	var out []types.Resource
	_, err := cl.call(wire.OpResources, struct{}{}, nil, &out)
	return out, err
}

// ServerStats fetches catalog size counters.
func (cl *Client) ServerStats() (wire.StatsReply, error) {
	var out wire.StatsReply
	_, err := cl.call(wire.OpServerStats, struct{}{}, nil, &out)
	return out, err
}

// OpStats fetches the connected server's telemetry snapshot: per-op
// counts and latency quantiles, per-driver byte totals, replica fan-out
// counters, audit drops and recent trace records.
func (cl *Client) OpStats() (wire.OpStatsReply, error) {
	var out wire.OpStatsReply
	_, err := cl.call(wire.OpOpStats, struct{}{}, nil, &out)
	return out, err
}

// LastTrace returns the trace ID of the most recent logical call, the
// handle to pass to Trace for its span tree.
func (cl *Client) LastTrace() string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.lastTrace
}

// Trace fetches every recorded span of a trace. The connected server
// answers from its own ring and fans the query out to its zone peers,
// so federated hops are included.
func (cl *Client) Trace(id string) (wire.TraceReply, error) {
	var out wire.TraceReply
	_, err := cl.call(wire.OpTrace, wire.TraceArgs{ID: id}, nil, &out)
	return out, err
}

// Usage fetches the connected server's per-user/collection usage
// accounting, optionally filtered by user and/or collection ("" = all).
func (cl *Client) Usage(user, collection string) (wire.UsageReply, error) {
	var out wire.UsageReply
	_, err := cl.call(wire.OpUsage, wire.UsageArgs{User: user, Collection: collection}, nil, &out)
	return out, err
}

// RepairStatus fetches the connected server's background repair engine
// snapshot: queue backlog, worker health and per-job run counts.
func (cl *Client) RepairStatus() (wire.RepairStatusReply, error) {
	var out wire.RepairStatusReply
	_, err := cl.call(wire.OpRepairStatus, wire.RepairStatusArgs{}, nil, &out)
	return out, err
}

// GridStat fetches windowed rates and quantiles over the trailing
// window. With grid set, the connected server fans out to its zone
// peers and merges the answers (dead peers come back flagged
// unreachable, not as an error); otherwise the reply covers the
// connected server only.
func (cl *Client) GridStat(window time.Duration, grid bool) (wire.GridStatReply, error) {
	var out wire.GridStatReply
	args := wire.GridStatArgs{WindowSeconds: int64(window / time.Second), LocalOnly: !grid}
	_, err := cl.call(wire.OpGridStat, args, nil, &out)
	return out, err
}

// Alerts fetches the connected server's SLO rule standings and its
// bounded log of fire/resolve alert transitions.
func (cl *Client) Alerts() (wire.AlertsReply, error) {
	var out wire.AlertsReply
	_, err := cl.call(wire.OpAlerts, wire.AlertsArgs{}, nil, &out)
	return out, err
}

// Incidents fetches the connected server's incident bundle index
// (flight recorder), newest first.
func (cl *Client) Incidents() (wire.IncidentsReply, error) {
	var out wire.IncidentsReply
	_, err := cl.call(wire.OpIncidents, wire.IncidentsArgs{}, nil, &out)
	return out, err
}

// IncidentGet fetches one full incident bundle by index ID: meta plus
// every captured file (profiles, span trees, state snapshots).
func (cl *Client) IncidentGet(id string) (wire.IncidentGetReply, error) {
	var out wire.IncidentGetReply
	_, err := cl.call(wire.OpIncidentGet, wire.IncidentGetArgs{ID: id}, nil, &out)
	return out, err
}

// IncidentCapture triggers an on-demand incident capture on the
// connected server. The call blocks for the CPU profile window (~2s).
func (cl *Client) IncidentCapture(reason string) (wire.IncidentCaptureReply, error) {
	var out wire.IncidentCaptureReply
	_, err := cl.call(wire.OpIncidentCapture, wire.IncidentCaptureArgs{Reason: reason}, nil, &out)
	return out, err
}

// Peers fetches the connected server's transfer observatory: per-peer
// and per-resource EWMA latency, bandwidth and success history.
func (cl *Client) Peers() (wire.PeersReply, error) {
	var out wire.PeersReply
	_, err := cl.call(wire.OpPeers, wire.PeersArgs{}, nil, &out)
	return out, err
}

// Heat fetches the connected server's heat observatory: hot-key and
// hot-object top-K tables, per-shard replication lag, and the latest
// rebalance advisor plan.
func (cl *Client) Heat() (wire.HeatReply, error) {
	var out wire.HeatReply
	_, err := cl.call(wire.OpHeat, wire.HeatArgs{}, nil, &out)
	return out, err
}

// Scrub runs the anti-entropy scrubber over one object (write
// permission) or a collection subtree (admin only) and returns what it
// found and fixed.
func (cl *Client) Scrub(path string) (wire.ScrubReply, error) {
	var out wire.ScrubReply
	_, err := cl.call(wire.OpScrub, wire.PathArgs{Path: path}, nil, &out)
	return out, err
}

// Checksum verifies every replica of one object against the catalog
// checksum, returning a per-resource verdict without repairing.
func (cl *Client) Checksum(path string) (wire.ChecksumReply, error) {
	var out wire.ChecksumReply
	_, err := cl.call(wire.OpChecksum, wire.PathArgs{Path: path}, nil, &out)
	return out, err
}
