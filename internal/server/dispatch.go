package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/audit"
	"gosrb/internal/core"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// call is one request in flight and everything its handler sees: the
// server, the connection's session, the request and the per-request
// state dispatch accounts. Each request gets its own call, so pipelined
// handlers never share mutable state.
type call struct {
	*Server
	*session
	req *wire.Request
	// user is the effective user the op runs as (the asserted end user
	// on peer hops), resolved before the handler runs; usage is
	// accounted to it ("" = unresolved).
	user string
	// pre holds the request's inbound bulk-data stream when it ended
	// within the reader loop's one-chunk read-ahead; in holds a longer
	// stream, live (see recvIn). The stream sits between this request
	// and the next one.
	pre []byte
	in  *inStream
	// deadline is the request's time budget (zero = unbounded), started
	// at dispatch from wire.Request.TimeoutMillis; federation hops
	// forward only what remains of it.
	deadline time.Time
	// span is the request's trace span; handlers and the layers beneath
	// them annotate it with retry/breaker/failover events.
	span *obs.Span
	// enqueued is when the reader loop finished reading the request.
	// The span is backdated to it and the gap until dispatch is the
	// queue.wait phase.
	enqueued  time.Time
	queueWait time.Duration
	// bytesIn / bytesOut count bulk-data bytes received and sent while
	// serving the request, for the usage accounting ledger.
	bytesIn  int64
	bytesOut int64
	// opErr and elapsed are what commit recorded: the handler's error
	// and the span's wall time when the reply went to the writer.
	opErr   error
	elapsed time.Duration
}

// handler serves one op: it writes exactly one reply (or redirect).
// Only a transport failure writing it is returned.
type handler func(c *call) error

// op adapts a typed handler body: it decodes the request's args into A,
// runs fn and sends fn's result as the reply — an error reply when fn
// fails, `{}` when it returns a nil body. A dataReply streams its bytes
// after the response and a *wire.Redirect is sent as a redirect. A live
// inbound stream is released when fn returns, so the reader loop drains
// any rest while the reply goes out.
func op[A any](fn func(c *call, a A) (any, error)) handler {
	return func(c *call) error {
		a, err := decode[A](c.req)
		if err != nil {
			return c.respond(nil, err)
		}
		c.bytesIn += int64(len(c.pre))
		body, err := fn(c, a)
		c.releaseIn()
		return c.respond(body, err)
	}
}

// dataReply is a reply whose bulk bytes follow the response frame:
// data, or — for a streamed reply (see streamed) — the read-ahead
// chunk head followed by src, size bytes in all. cl is closed once the
// send ends.
type dataReply struct {
	body any
	data []byte
	head *[]byte
	src  io.Reader
	cl   io.Closer
	size int64
}

// sized wraps a plain data read: the response announces the byte count.
func sized(data []byte, err error) (any, error) {
	return dataReply{body: wire.SizeReply{Size: int64(len(data))}, data: data}, err
}

// noArgs is the args type of ops that take none.
type noArgs struct{}

// handlers is the server half of the op table: one handler per op the
// wire.Specs table declares.
var handlers = map[string]handler{
	wire.OpMkdir: op(func(c *call, a wire.PathArgs) (any, error) {
		return nil, c.broker.Mkdir(c.user, a.Path)
	}),
	wire.OpRmColl: op(func(c *call, a wire.PathArgs) (any, error) {
		return nil, c.broker.RmColl(c.user, a.Path)
	}),
	wire.OpList: op(func(c *call, a wire.PathArgs) (any, error) {
		return c.broker.List(c.user, a.Path)
	}),
	wire.OpStat: op(func(c *call, a wire.PathArgs) (any, error) {
		return c.broker.StatPath(c.user, a.Path)
	}),
	wire.OpGetObject: op(func(c *call, a wire.PathArgs) (any, error) {
		return c.broker.Cat.GetObject(a.Path)
	}),
	wire.OpIngest: op(func(c *call, a wire.IngestArgs) (any, error) {
		// A remote target resource federates by proxy: the owning
		// server performs the ingest.
		if owner := c.resourceOwner(a.Resource); owner != "" && !c.isPeer {
			data, err := c.bodyBytes()
			if err != nil {
				return nil, err
			}
			res, err := c.proxy(owner, c.user, c.req, data, c.deadline, c.span)
			if err != nil {
				return nil, err
			}
			return res.Resp.Body, nil
		}
		return c.broker.Ingest(c.user, core.IngestOpts{
			Path: a.Path, Data: c.body(), Resource: a.Resource,
			Container: a.Container, DataType: a.DataType, Meta: a.Meta,
			Span: c.span,
		})
	}),
	wire.OpReingest: op(func(c *call, a wire.PathArgs) (any, error) {
		data, err := c.bodyBytes()
		if err != nil {
			return nil, err
		}
		return nil, c.broker.Reingest(c.user, a.Path, data)
	}),
	wire.OpGet: op(func(c *call, a wire.PathArgs) (any, error) {
		// A valid ticket lets the holder read with the issuer's
		// authority — delegated access independent of ACL grants.
		user := c.user
		if c.req.Ticket != "" {
			level, issuer, err := c.tickets.Redeem(c.req.Ticket, a.Path)
			if err != nil {
				return nil, err
			}
			if l, lerr := acl.ParseLevel(level); lerr == nil && l >= acl.Read {
				user = issuer
			}
		}
		if owner := c.localityOf(a.Path); owner != "" && !c.isPeer {
			return c.federate(owner, user)
		}
		data, f, size, err := c.broker.GetStream(user, a.Path, wire.DataChunk, c.span)
		if f != nil {
			return streamed("get", a.Path, f, f, size)
		}
		return sized(data, err)
	}),
	wire.OpIssueTicket: op(func(c *call, a wire.TicketArgs) (any, error) {
		// Only a user holding Own may delegate access to a path.
		if c.broker.Cat.EffectiveLevel(a.Path, c.user) < acl.Own {
			return nil, types.E("issueticket", a.Path, types.ErrPermission)
		}
		if _, err := acl.ParseLevel(a.Level); err != nil {
			return nil, types.E("issueticket", a.Level, types.ErrInvalid)
		}
		ttl := time.Duration(a.TTLSeconds) * time.Second
		if ttl <= 0 {
			ttl = time.Hour
		}
		tk, err := c.tickets.Issue(c.user, a.Path, a.Level, a.Uses, time.Now().Add(ttl))
		if err != nil {
			return nil, err
		}
		return wire.TicketReply{ID: tk.ID}, nil
	}),
	wire.OpReadRange: op(func(c *call, a wire.RangeArgs) (any, error) {
		if owner := c.localityOf(a.Path); owner != "" && !c.isPeer {
			return c.federate(owner, c.user)
		}
		return c.readRange(c.user, a)
	}),
	wire.OpReplicate: op(func(c *call, a wire.ReplicateArgs) (any, error) {
		return c.replicate(a)
	}),
	wire.OpIngestReplica: op(func(c *call, a wire.ReplicateArgs) (any, error) {
		data, err := c.bodyBytes()
		if err != nil {
			return nil, err
		}
		return c.broker.IngestReplica(c.user, a.Path, a.Resource, data)
	}),
	wire.OpDelete: op(func(c *call, a wire.PathArgs) (any, error) {
		return nil, c.broker.Delete(c.user, a.Path)
	}),
	wire.OpDeleteReplica: op(func(c *call, a wire.ReplicaArgs) (any, error) {
		return nil, c.broker.DeleteReplica(c.user, a.Path, types.ReplicaNumber(a.Number))
	}),
	wire.OpMove: op(func(c *call, a wire.MoveArgs) (any, error) {
		return nil, c.broker.Move(c.user, a.Src, a.Dst)
	}),
	wire.OpCopy: op(func(c *call, a wire.CopyArgs) (any, error) {
		return nil, c.broker.Copy(c.user, a.Src, a.Dst, a.Resource)
	}),
	wire.OpLink: op(func(c *call, a wire.LinkArgs) (any, error) {
		return nil, c.broker.Link(c.user, a.Target, a.LinkPath)
	}),
	wire.OpAddMeta: op(func(c *call, a wire.MetaArgs) (any, error) {
		return nil, c.broker.AddMeta(c.user, a.Path, types.MetaClass(a.Class), a.AVU)
	}),
	wire.OpGetMeta: op(func(c *call, a wire.GetMetaArgs) (any, error) {
		return c.broker.GetMeta(c.user, a.Path, types.MetaClass(a.Class))
	}),
	wire.OpAnnotate: op(func(c *call, a wire.AnnotateArgs) (any, error) {
		return nil, c.broker.Annotate(c.user, a.Path, a.Ann)
	}),
	wire.OpAnnotations: op(func(c *call, a wire.PathArgs) (any, error) {
		return c.broker.Annotations(c.user, a.Path)
	}),
	wire.OpQuery: op(func(c *call, a wire.QueryArgs) (any, error) {
		qstart := time.Now()
		hits, partial, err := c.broker.QueryPartial(c.user, a.Q)
		if err != nil {
			return nil, err
		}
		// On a sharded catalog the whole call is the scatter-gather
		// fan-out; the router's own phase ops attribute the merge tail.
		if sh, ok := c.broker.Cat.(interface{ N() int }); ok && sh.N() > 1 {
			c.span.Phase(obs.PhaseShardFanout, time.Since(qstart))
		}
		return wire.QueryReply{Hits: hits, Partial: partial}, nil
	}),
	wire.OpQueryAttrs: op(func(c *call, a wire.PathArgs) (any, error) {
		return c.broker.QueryAttrNames(c.user, a.Path), nil
	}),
	wire.OpChmod: op(func(c *call, a wire.ChmodArgs) (any, error) {
		level, err := acl.ParseLevel(a.Level)
		if err != nil {
			return nil, types.E("chmod", a.Level, types.ErrInvalid)
		}
		return nil, c.broker.Chmod(c.user, a.Path, a.Grantee, level)
	}),
	wire.OpLock: op(func(c *call, a wire.LockArgs) (any, error) {
		kind, err := parseLockKind(a.Kind)
		if err != nil {
			return nil, err
		}
		return nil, c.broker.Lock(c.user, a.Path, kind, time.Duration(a.TTLSeconds)*time.Second)
	}),
	wire.OpUnlock: op(func(c *call, a wire.PathArgs) (any, error) {
		return nil, c.broker.Unlock(c.user, a.Path)
	}),
	wire.OpPin: op(func(c *call, a wire.PinArgs) (any, error) {
		return nil, c.broker.Pin(c.user, a.Path, a.Resource, time.Duration(a.TTLSeconds)*time.Second)
	}),
	wire.OpUnpin: op(func(c *call, a wire.PinArgs) (any, error) {
		return nil, c.broker.Unpin(c.user, a.Path, a.Resource)
	}),
	wire.OpCheckout: op(func(c *call, a wire.PathArgs) (any, error) {
		return nil, c.broker.Checkout(c.user, a.Path)
	}),
	wire.OpCheckin: op(func(c *call, a wire.CheckinArgs) (any, error) {
		data, err := c.bodyBytes()
		if err != nil {
			return nil, err
		}
		return nil, c.broker.Checkin(c.user, a.Path, data, a.Comment)
	}),
	wire.OpRegisterURL: op(func(c *call, a wire.RegisterURLArgs) (any, error) {
		return c.broker.RegisterURL(c.user, a.Path, a.URL)
	}),
	wire.OpRegisterSQL: op(func(c *call, a wire.RegisterSQLArgs) (any, error) {
		return c.broker.RegisterSQL(c.user, a.Path, a.Spec)
	}),
	wire.OpExecSQL: op(func(c *call, a wire.ExecSQLArgs) (any, error) {
		if owner := c.sqlOwner(a.Path); owner != "" && !c.isPeer {
			return c.federate(owner, c.user)
		}
		return sized(c.broker.ExecuteSQL(c.user, a.Path, a.Suffix))
	}),
	wire.OpInvoke: op(func(c *call, a wire.InvokeArgs) (any, error) {
		return sized(c.broker.InvokeMethod(c.user, a.Path, a.Args))
	}),
	wire.OpMkContainer: op(func(c *call, a wire.ContainerArgs) (any, error) {
		return c.broker.CreateContainer(c.user, a.Path, a.Resource)
	}),
	wire.OpSyncContainer: op(func(c *call, a wire.PathArgs) (any, error) {
		n, err := c.broker.SyncContainer(c.user, a.Path)
		return wire.CountReply{N: n}, err
	}),
	wire.OpExtract: op(func(c *call, a wire.ExtractArgs) (any, error) {
		n, err := c.broker.ExtractMeta(c.user, a.Path, a.Method, a.From)
		return wire.CountReply{N: n}, err
	}),
	wire.OpShadowList: op(func(c *call, a wire.ShadowArgs) (any, error) {
		return c.broker.ShadowList(c.user, a.Path, a.Rel)
	}),
	wire.OpShadowOpen: op(func(c *call, a wire.ShadowArgs) (any, error) {
		return sized(c.broker.ShadowOpen(c.user, a.Path, a.Rel))
	}),
	wire.OpAddUser: op(func(c *call, a wire.AddUserArgs) (any, error) {
		cat := c.broker.Cat
		if !cat.IsAdmin(c.user) {
			return nil, types.E("adduser", a.Name, types.ErrPermission)
		}
		if a.Name == "" || a.Password == "" {
			return nil, types.E("adduser", a.Name, types.ErrInvalid)
		}
		domain := a.Domain
		if domain == "" {
			domain = "local"
		}
		if err := cat.AddUser(types.User{Name: a.Name, Domain: domain, Admin: a.Admin}); err != nil {
			return nil, err
		}
		c.authn.Register(a.Name, a.Password)
		cat.AuditLog().Op(c.user, "adduser", a.Name, true, domain)
		return nil, nil
	}),
	wire.OpAudit: op(func(c *call, a wire.AuditArgs) (any, error) {
		if !c.broker.Cat.IsAdmin(c.user) {
			return nil, types.E("audit", "", types.ErrPermission)
		}
		recs := c.broker.Cat.AuditLog().Query(audit.Filter{User: a.User, Op: a.Op, Target: a.Target, Trace: a.Trace})
		if a.Limit > 0 && len(recs) > a.Limit {
			recs = recs[len(recs)-a.Limit:]
		}
		return recs, nil
	}),
	wire.OpTrace: op(func(c *call, a wire.TraceArgs) (any, error) {
		if a.ID == "" {
			return nil, types.E("trace", "", types.ErrInvalid)
		}
		// Client-facing requests fan out to every peer so the reply
		// covers all hops of a federated operation; peer-forwarded
		// requests answer from the local ring only.
		return c.gatherTrace(c.user, a.ID, !c.isPeer), nil
	}),
	wire.OpUsage: op(func(c *call, a wire.UsageArgs) (any, error) {
		entries := c.broker.Metrics().Usage().Snapshot()
		if a.User != "" || a.Collection != "" {
			kept := entries[:0]
			for _, e := range entries {
				if a.User != "" && e.User != a.User {
					continue
				}
				if a.Collection != "" && e.Collection != a.Collection {
					continue
				}
				kept = append(kept, e)
			}
			entries = kept
		}
		return wire.UsageReply{Server: c.name, Entries: entries}, nil
	}),
	wire.OpResources: op(func(c *call, _ noArgs) (any, error) {
		return c.broker.Cat.Resources(), nil
	}),
	wire.OpServerStats: op(func(c *call, _ noArgs) (any, error) {
		return c.stats(), nil
	}),
	wire.OpOpStats: op(func(c *call, _ noArgs) (any, error) {
		return c.Telemetry(), nil
	}),
	wire.OpRepairStatus: op(func(c *call, _ noArgs) (any, error) {
		return c.repairStatus(), nil
	}),
	wire.OpShards: op(func(c *call, _ wire.ShardsArgs) (any, error) {
		if rt, ok := c.broker.Cat.(interface{ Statuses() []shard.Status }); ok {
			return wire.ShardsReply{Server: c.name, Shards: rt.Statuses()}, nil
		}
		// Monolithic catalog: report the single implicit leader shard so
		// `srb shards` works against any daemon.
		st := c.broker.Cat.Stats()
		return wire.ShardsReply{Server: c.name, Shards: []shard.Status{{
			Role: string(shard.Leader), Objects: st.Objects,
			Collections: st.Collections, MetaEntries: st.MetaEntries,
		}}}, nil
	}),
	wire.OpShardPull: op(func(c *call, a wire.ShardPullArgs) (any, error) {
		// The replication stream exposes the whole catalog, so only
		// peer daemons and administrators may pull it.
		if !c.isPeer && !c.broker.Cat.IsAdmin(c.user) {
			return nil, types.E("shardpull", "", types.ErrPermission)
		}
		rt, ok := c.broker.Cat.(interface {
			Pull(int, uint64) (shard.PullResult, error)
		})
		if !ok {
			return nil, types.E("shardpull", "", types.ErrUnsupported)
		}
		res, err := rt.Pull(a.Shard, a.After)
		if err != nil {
			return nil, err
		}
		return wire.ShardPullReply{
			Server: c.name, Entries: res.Entries,
			Snapshot: res.Snapshot, Seq: res.Seq,
		}, nil
	}),
	wire.OpGridStat: op(func(c *call, a wire.GridStatArgs) (any, error) {
		window := time.Duration(a.WindowSeconds) * time.Second
		// Client-facing requests fan out to every peer for the grid
		// view; peer-forwarded (or explicitly local) requests answer
		// from the local ring only, bounding the gather to one hop.
		fanout := !c.isPeer && !a.LocalOnly
		return c.gatherGridStat(c.user, window, fanout, c.deadline, c.span), nil
	}),
	wire.OpAlerts: op(func(c *call, _ wire.AlertsArgs) (any, error) {
		return c.alerts(), nil
	}),
	wire.OpIncidents: op(func(c *call, _ wire.IncidentsArgs) (any, error) {
		return c.incidents(), nil
	}),
	wire.OpIncidentGet: op(func(c *call, a wire.IncidentGetArgs) (any, error) {
		return c.incidentGet(a.ID)
	}),
	wire.OpIncidentCapture: op(func(c *call, a wire.IncidentCaptureArgs) (any, error) {
		return c.incidentCapture(a.Reason)
	}),
	wire.OpPeers: op(func(c *call, _ wire.PeersArgs) (any, error) {
		return c.peersReply(), nil
	}),
	wire.OpHeat: op(func(c *call, _ wire.HeatArgs) (any, error) {
		return c.heat(), nil
	}),
	wire.OpScrub: op(func(c *call, a wire.PathArgs) (any, error) {
		rpt, err := c.broker.Scrub(c.user, a.Path, c.span)
		return wire.ScrubReply{Server: c.name, Report: rpt}, err
	}),
	wire.OpChecksum: op(func(c *call, a wire.PathArgs) (any, error) {
		o, verdicts, err := c.broker.VerifyChecksums(c.user, a.Path)
		if err != nil {
			return nil, err
		}
		return wire.ChecksumReply{Path: o.Path(), Checksum: o.Checksum, Verdicts: verdicts}, nil
	}),
	wire.OpBulkPut: op(func(c *call, a wire.BulkPutArgs) (any, error) {
		return c.bulkPut(a)
	}),
	wire.OpMultiGet: op(func(c *call, a wire.MultiGetArgs) (any, error) {
		return c.multiGet(a), nil
	}),
	wire.OpBulkStat: op(func(c *call, a wire.BulkStatArgs) (any, error) {
		c.observeBatch(len(a.Paths))
		rep := wire.BulkStatReply{Server: c.name}
		for _, p := range a.Paths {
			item := wire.BulkStatItem{Path: p}
			if st, err := c.broker.StatPath(c.user, p); err != nil {
				item.ErrKind, item.ErrMsg = wire.KindOf(err), err.Error()
			} else {
				item.OK, item.Stat = true, st
			}
			rep.Items = append(rep.Items, item)
		}
		return rep, nil
	}),
}

// dispatch times one request under a span: a missing trace ID is
// minted here (this server originates the request), an inbound one is
// kept — proxied requests carry it onward, so one user action shows up
// under the same ID on every federation hop. Telemetry is committed by
// respond before the reply is written; the slow-op and error log lines
// follow the send.
func (c *call) dispatch() error {
	req := c.req
	if req.Trace == "" {
		req.Trace = obs.NewTraceID()
	}
	// The request's time budget starts counting here; federation hops
	// forward only what remains of it.
	if req.TimeoutMillis > 0 {
		c.deadline = time.Now().Add(time.Duration(req.TimeoutMillis) * time.Millisecond)
	}
	// The caller's span ID (set by a federating server, never by a plain
	// client) becomes this span's parent, so every hop's record
	// reassembles into one tree. The span is backdated to when the
	// reader loop enqueued the request, so queue.wait + dispatch
	// partition its wall clock exactly and queue pressure shows up in
	// the trace, not as mystery latency before it.
	c.span = obs.StartSpanFrom(req.Trace, req.Span, req.Op)
	c.queueWait = time.Since(c.enqueued)
	c.span.Start = c.enqueued
	c.span.Phase(obs.PhaseQueueWait, c.queueWait)
	// A positive Attempt marks a client-side retry of the same logical
	// call.
	if req.Attempt > 0 {
		c.span.Event(obs.EventRetry, fmt.Sprintf("client attempt %d", req.Attempt+1))
	}
	err := c.serve()
	opErr := c.opErr
	if opErr == nil {
		opErr = err
	}
	if thr := time.Duration(c.slowOp.Load()); thr > 0 && c.elapsed >= thr {
		// Outlier: log the whole local span tree while the ring still
		// holds it, so the slow hop's causes (retries, breaker trips,
		// failovers) are in the log even if nobody fetches the trace.
		reg := c.broker.Metrics()
		reg.Counter("server.slowops").Inc()
		var tree strings.Builder
		obs.WriteTree(&tree, obs.AssembleTree(reg.Traces().ForTrace(req.Trace)))
		c.Logger.Infof("slow op %s took %s (threshold %s) trace=%s\n%s",
			req.Op, c.elapsed, thr, req.Trace, tree.String())
	}
	if opErr != nil {
		c.Logger.Infof("op %s user=%s remote=%s trace=%s: %v",
			req.Op, c.login+c.peer, c.remote, req.Trace, opErr)
	} else {
		c.Logger.Debugf("op %s user=%s remote=%s trace=%s ok",
			req.Op, c.login+c.peer, c.remote, req.Trace)
	}
	return err
}

// serve resolves the effective user, enforces the time budget and runs
// the op's handler.
func (c *call) serve() error {
	user, err := c.effectiveUser()
	if err != nil {
		return c.respond(nil, err)
	}
	c.user = user
	// A request whose budget already ran out (it sat queued behind a
	// slow one, or a hop forwarded a sliver) fails before any work.
	// Ops that stream inbound data are exempt here: their data frames
	// were already drained to keep the protocol healthy, so their
	// handlers run and the deadline is enforced on the federation hop
	// instead.
	if !wire.StreamsIn(c.req.Op) && c.expired() {
		return c.respond(nil, types.E(c.req.Op, "", types.ErrTimeout))
	}
	h, ok := handlers[c.req.Op]
	if !ok {
		return c.respond(nil, types.E(c.req.Op, "", types.ErrUnsupported))
	}
	return h(c)
}

// effectiveUser resolves the user an operation runs as.
func (c *call) effectiveUser() (string, error) {
	if c.isPeer {
		if c.req.OnBehalf == "" {
			return "", types.E(c.req.Op, "", types.ErrAuth)
		}
		return c.req.OnBehalf, nil
	}
	return c.login, nil
}

// expired reports whether the request's budget has run out.
func (c *call) expired() bool {
	return !c.deadline.IsZero() && !time.Now().Before(c.deadline)
}

// respond sends the request's one answer: an error response when err
// is set, else body as a success response (with its data stream, for a
// dataReply) or as a redirect. The request's telemetry is committed
// before the frames go to the conn writer, so a client that reads
// stats right after its reply always finds its own request counted.
func (c *call) respond(body any, err error) error {
	if rd, ok := body.(*wire.Redirect); ok && err == nil {
		rd.ID = c.req.ID
		c.commit(nil)
		return c.w.send(func(wc *wire.Conn) error {
			return wc.WriteJSON(wire.MsgRedirect, rd)
		})
	}
	var dr dataReply
	follows := false
	switch r := body.(type) {
	case nil:
		body = struct{}{}
	case dataReply:
		body, dr, follows = r.body, r, true
	}
	if dr.cl != nil {
		defer func() {
			wire.PutChunk(dr.head)
			dr.cl.Close()
		}()
	}
	var resp wire.Response
	if err == nil {
		resp, err = wire.OkResponse(body, follows)
	}
	if err != nil {
		resp = wire.ErrResponse(err)
	}
	resp.ID = c.req.ID
	var data io.Reader
	if resp.DataFollows {
		data = bytes.NewReader(dr.data)
		c.bytesOut += int64(len(dr.data))
		if dr.src != nil {
			data = io.MultiReader(bytes.NewReader(*dr.head), dr.src)
			c.bytesOut += dr.size
		}
	}
	c.commit(err)
	return c.w.send(func(wc *wire.Conn) error {
		if err := wc.WriteJSON(wire.MsgResponse, resp); err != nil || data == nil {
			return err
		}
		return wc.SendData(data)
	})
}

// commit records the request's telemetry once: the server.<op>
// histogram, the span with its phase fold, and the usage row. The span
// ends here, when the reply is handed to the writer, so a data reply's
// send time is not inside server.<op>.
func (c *call) commit(opErr error) {
	c.opErr = opErr
	req, sp, reg := c.req, c.span, c.broker.Metrics()
	if c.expired() {
		reg.Counter("server.deadline.exceeded").Inc()
		sp.Event(obs.EventDeadline, "budget exhausted")
	}
	c.elapsed = sp.Elapsed()
	sp.Phase(obs.PhaseDispatch, c.elapsed-c.queueWait)
	reg.Op("server."+req.Op).Observe(c.elapsed, opErr)
	sp.End(reg.Traces(), c.name, c.remote, opErr)
	reg.RecordPhases("server", req.Op, req.Trace, sp.Events())
	if c.user != "" {
		reg.Usage().Record(c.user, collectionOf(req.Args), req.Trace, req.Op,
			opErr != nil, c.bytesIn, c.bytesOut, c.elapsed)
	}
}

// decode unmarshals request args.
func decode[T any](req *wire.Request) (T, error) {
	var v T
	if len(req.Args) == 0 {
		return v, nil
	}
	err := json.Unmarshal(req.Args, &v)
	return v, err
}

// observeBatch records a batch op's item count in the batch-size
// histogram (count encoded as microseconds in the pow-2 buckets).
func (s *Server) observeBatch(n int) {
	s.broker.Metrics().Op("server.batch.items").Observe(time.Duration(n)*time.Microsecond, nil)
}

// bulkPut ingests a batch in one round trip. The manifest must account
// for the whole data stream byte-for-byte; items then succeed or fail
// independently — each ingest is atomic per item, so a failed item
// writes no partial rows and cannot tear down its batch-mates. Items
// whose target resource lives on a peer are proxied item by item.
func (c *call) bulkPut(a wire.BulkPutArgs) (wire.BulkPutReply, error) {
	rep := wire.BulkPutReply{Server: c.name}
	stream, err := c.bodyBytes()
	if err != nil {
		return rep, err
	}
	var total int64
	for _, it := range a.Items {
		if it.Size < 0 {
			return rep, types.E(wire.OpBulkPut, it.Path, types.ErrInvalid)
		}
		total += it.Size
	}
	if total != int64(len(stream)) {
		return rep, types.E(wire.OpBulkPut, "",
			fmt.Errorf("manifest declares %d bytes, stream carries %d: %w", total, len(stream), types.ErrInvalid))
	}
	c.observeBatch(len(a.Items))
	off := int64(0)
	for _, it := range a.Items {
		data := stream[off : off+it.Size : off+it.Size]
		off += it.Size
		st := wire.BulkItemStatus{Path: it.Path, OK: true}
		var err error
		if owner := c.resourceOwner(it.Resource); owner != "" && !c.isPeer {
			ireq := &wire.Request{Op: wire.OpIngest, Trace: c.req.Trace}
			ireq.Args, err = json.Marshal(wire.IngestArgs{
				Path: it.Path, Resource: it.Resource, Container: it.Container,
				DataType: it.DataType, Meta: it.Meta,
			})
			if err == nil {
				_, err = c.proxy(owner, c.user, ireq, data, c.deadline, c.span)
			}
		} else {
			_, err = c.broker.Ingest(c.user, core.IngestOpts{
				Path: it.Path, Data: bytes.NewReader(data), Resource: it.Resource,
				Container: it.Container, DataType: it.DataType, Meta: it.Meta,
			})
		}
		if err != nil {
			st.OK = false
			st.ErrKind, st.ErrMsg = wire.KindOf(err), err.Error()
		}
		rep.Results = append(rep.Results, st)
	}
	return rep, nil
}

// multiGet fetches a batch of objects, concatenating successful items'
// bytes in request order (the reply manifest carries per-item sizes so
// the client can slice the stream back apart). Items fail
// independently; remote-owned items are proxied like a single get.
func (c *call) multiGet(a wire.MultiGetArgs) dataReply {
	rep := wire.MultiGetReply{Server: c.name}
	c.observeBatch(len(a.Paths))
	var out []byte
	for _, p := range a.Paths {
		item := wire.MultiGetItem{Path: p}
		var data []byte
		var err error
		if owner := c.localityOf(p); owner != "" && !c.isPeer {
			greq := &wire.Request{Op: wire.OpGet, Trace: c.req.Trace}
			greq.Args, err = json.Marshal(wire.PathArgs{Path: p})
			if err == nil {
				data, err = c.proxyGet(owner, c.user, greq, c.deadline, c.span)
			}
		} else {
			data, err = c.broker.GetTraced(c.user, p, c.span)
		}
		if err != nil {
			item.ErrKind, item.ErrMsg = wire.KindOf(err), err.Error()
		} else {
			item.OK, item.Size = true, int64(len(data))
			out = append(out, data...)
		}
		rep.Items = append(rep.Items, item)
	}
	return dataReply{body: rep, data: out}
}

// readRange serves the parallel-transfer primitive from the open
// replica.
func (s *Server) readRange(user string, a wire.RangeArgs) (any, error) {
	f, size, err := s.broker.OpenRead(user, a.Path)
	if err != nil {
		return nil, err
	}
	length := a.Length
	if length < 0 || a.Offset+length > size {
		length = size - a.Offset
	}
	if length <= 0 {
		f.Close()
		return sized(nil, nil)
	}
	return streamed("readrange", a.Path, io.NewSectionReader(f, a.Offset, length), f, length)
}

// replicate performs a replication that may cross server boundaries:
// source bytes are fetched from wherever a clean replica lives, and the
// owning server of the target resource stores the copy.
func (c *call) replicate(a wire.ReplicateArgs) (types.Replica, error) {
	targetOwner := c.resourceOwner(a.Resource)
	sourceOwner := c.localityOf(a.Path)
	if targetOwner == "" && sourceOwner == "" {
		// Fully local.
		return c.broker.Replicate(c.user, a.Path, a.Resource)
	}
	if c.isPeer {
		// Peers only delegate the final local step; refuse loops.
		return types.Replica{}, types.E("replicate", a.Path, types.ErrInvalid)
	}
	// Obtain the source bytes: locally when possible, else via the
	// holder.
	var data []byte
	var err error
	if sourceOwner == "" {
		data, err = c.broker.Get(c.user, a.Path)
	} else {
		if _, ok := c.PeerAddr(sourceOwner); !ok {
			return types.Replica{}, types.E("replicate", sourceOwner, types.ErrOffline)
		}
		req := &wire.Request{Op: wire.OpGet}
		req.Args, _ = json.Marshal(wire.PathArgs{Path: a.Path})
		data, err = c.proxyGet(sourceOwner, c.user, req, c.deadline, c.span)
	}
	if err != nil {
		return types.Replica{}, err
	}
	if targetOwner == "" {
		// Target local: store directly.
		return c.broker.IngestReplica(c.user, a.Path, a.Resource, data)
	}
	// Target remote: the owning peer stores the replica.
	if _, ok := c.PeerAddr(targetOwner); !ok {
		return types.Replica{}, types.E("replicate", targetOwner, types.ErrOffline)
	}
	req := &wire.Request{Op: wire.OpIngestReplica}
	req.Args, _ = json.Marshal(wire.ReplicateArgs{Path: a.Path, Resource: a.Resource})
	res, err := c.proxy(targetOwner, c.user, req, data, c.deadline, c.span)
	if err != nil {
		return types.Replica{}, err
	}
	var rep types.Replica
	if err := json.Unmarshal(res.Resp.Body, &rep); err != nil {
		return types.Replica{}, err
	}
	return rep, nil
}

// sqlOwner names the peer owning the database resource behind a SQL
// object, or "" when local.
func (s *Server) sqlOwner(path string) string {
	o, err := s.broker.Cat.GetObject(path)
	if err != nil || o.Kind != types.KindSQL || o.SQL == nil {
		return ""
	}
	return s.resourceOwner(o.SQL.Resource)
}

// collectionOf derives the usage-accounting key from a request's args:
// the parent collection of the op's primary path (Src for two-path
// ops). Ops that carry no grid path account under "-".
func collectionOf(args json.RawMessage) string {
	var a struct{ Path, Src string }
	if len(args) > 0 {
		_ = json.Unmarshal(args, &a)
	}
	p := a.Path
	if p == "" {
		p = a.Src
	}
	if p == "" || !strings.HasPrefix(p, "/") {
		return "-"
	}
	return types.Parent(p)
}
