package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// Layer wrappers for the server process. They sit at the boundary the
// broker sees: the catalog wrapper between core and the shard router,
// the storage wrapper between core and each posixfs vault. Counts are
// kept always (one atomic add per call); timing, latency samples and
// spans only while tracing is on, so an untraced run pays a flag load
// and nothing else.

// maxSpans bounds the in-memory span buffer of one process.
const maxSpans = 1 << 20

// span is one timed call. Server-side spans take the child's run span
// as parent: which request caused a catalog or storage call cannot be
// seen from outside the program.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu      sync.Mutex
	next    uint64
	spans   []span
	dropped int64
}

func (l *spanLog) newID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) add(parent uint64, name string, start, end int64) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.next++
		l.spans = append(l.spans, span{ID: l.next, Parent: parent, Name: name, Start: start, End: end})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// writeFile writes the spans as JSON lines and returns how many were
// dropped for want of room.
func (l *spanLog) writeFile(path string) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return l.dropped, f.Close()
}

// tracer is the switch and span sink shared by the server-side layers.
type tracer struct {
	on    atomic.Bool
	run   uint64 // the child's run span, parent of every layer span
	spans spanLog
}

func newTracer() *tracer {
	t := &tracer{}
	t.run = t.spans.newID()
	return t
}

// begin returns the call's start in Unix nanoseconds, or 0 when tracing
// is off.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return 0
	}
	return time.Now().UnixNano()
}

// samples collects latencies of one call kind while tracing.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d int64) {
	s.mu.Lock()
	s.ns = append(s.ns, d)
	s.mu.Unlock()
}

func (s *samples) p50us() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ns) == 0 {
		return 0
	}
	v := append([]int64(nil), s.ns...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(v[len(v)/2]) / 1e3
}

// ---- catalog ----

// Catalog call kinds.
const (
	kindLookup = iota
	kindWrite
	kindQuery
)

// catCounts is the cumulative, always-on part of the catalog record.
type catCounts struct {
	Calls      int64
	Errors     int64
	BusyNs     int64 // traced calls only
	QueryCalls int64
	QueryHits  int64
}

// catLayer wraps the shard router. Embedding keeps every router method
// the server type-asserts for (N, Statuses, Pull, Advise, LastPlan);
// only the methods on the request path are overridden.
type catLayer struct {
	*shard.Router
	t                  *tracer
	calls, errs, busy  atomic.Int64
	qcalls, qhits      atomic.Int64
	lookup, write, qry samples
}

func (c *catLayer) counts() catCounts {
	return catCounts{
		Calls: c.calls.Load(), Errors: c.errs.Load(), BusyNs: c.busy.Load(),
		QueryCalls: c.qcalls.Load(), QueryHits: c.qhits.Load(),
	}
}

func (c *catLayer) end(kind int, name string, start int64, err error) {
	c.calls.Add(1)
	if err != nil {
		c.errs.Add(1)
	}
	if start == 0 {
		return
	}
	now := time.Now().UnixNano()
	d := now - start
	c.busy.Add(d)
	switch kind {
	case kindLookup:
		c.lookup.add(d)
	case kindWrite:
		c.write.add(d)
	case kindQuery:
		c.qry.add(d)
	}
	c.t.spans.add(c.t.run, name, start, now)
}

func (c *catLayer) GetObject(p string) (types.DataObject, error) {
	s := c.t.begin()
	o, err := c.Router.GetObject(p)
	c.end(kindLookup, "mcat.GetObject", s, err)
	return o, err
}

func (c *catLayer) ResolveObject(p string) (types.DataObject, error) {
	s := c.t.begin()
	o, err := c.Router.ResolveObject(p)
	c.end(kindLookup, "mcat.ResolveObject", s, err)
	return o, err
}

func (c *catLayer) GetResource(name string) (types.Resource, error) {
	s := c.t.begin()
	r, err := c.Router.GetResource(name)
	c.end(kindLookup, "mcat.GetResource", s, err)
	return r, err
}

func (c *catLayer) ResolvePhysical(name string) ([]types.Resource, error) {
	s := c.t.begin()
	r, err := c.Router.ResolvePhysical(name)
	c.end(kindLookup, "mcat.ResolvePhysical", s, err)
	return r, err
}

func (c *catLayer) GetColl(p string) (types.Collection, error) {
	s := c.t.begin()
	col, err := c.Router.GetColl(p)
	c.end(kindLookup, "mcat.GetColl", s, err)
	return col, err
}

func (c *catLayer) CollExists(p string) bool {
	s := c.t.begin()
	ok := c.Router.CollExists(p)
	c.end(kindLookup, "mcat.CollExists", s, nil)
	return ok
}

func (c *catLayer) IsAdmin(name string) bool {
	s := c.t.begin()
	ok := c.Router.IsAdmin(name)
	c.end(kindLookup, "mcat.IsAdmin", s, nil)
	return ok
}

func (c *catLayer) EffectiveLevel(p, user string) acl.Level {
	s := c.t.begin()
	l := c.Router.EffectiveLevel(p, user)
	c.end(kindLookup, "mcat.EffectiveLevel", s, nil)
	return l
}

func (c *catLayer) ResourceLevel(resource, user string) acl.Level {
	s := c.t.begin()
	l := c.Router.ResourceLevel(resource, user)
	c.end(kindLookup, "mcat.ResourceLevel", s, nil)
	return l
}

func (c *catLayer) CheckMandatory(coll string, provided []types.AVU) []string {
	s := c.t.begin()
	missing := c.Router.CheckMandatory(coll, provided)
	c.end(kindLookup, "mcat.CheckMandatory", s, nil)
	return missing
}

func (c *catLayer) RegisterObject(o *types.DataObject) (types.ObjectID, error) {
	s := c.t.begin()
	id, err := c.Router.RegisterObject(o)
	c.end(kindWrite, "mcat.RegisterObject", s, err)
	return id, err
}

func (c *catLayer) UpdateObject(p string, fn func(*types.DataObject) error) error {
	s := c.t.begin()
	err := c.Router.UpdateObject(p, fn)
	c.end(kindWrite, "mcat.UpdateObject", s, err)
	return err
}

func (c *catLayer) DeleteObject(p string) error {
	s := c.t.begin()
	err := c.Router.DeleteObject(p)
	c.end(kindWrite, "mcat.DeleteObject", s, err)
	return err
}

func (c *catLayer) AddMeta(p string, class types.MetaClass, avu types.AVU) error {
	s := c.t.begin()
	err := c.Router.AddMeta(p, class, avu)
	c.end(kindWrite, "mcat.AddMeta", s, err)
	return err
}

func (c *catLayer) MkColl(p, owner string) error {
	s := c.t.begin()
	err := c.Router.MkColl(p, owner)
	c.end(kindWrite, "mcat.MkColl", s, err)
	return err
}

func (c *catLayer) RunQuery(q mcat.Query) ([]mcat.Hit, error) {
	s := c.t.begin()
	hits, err := c.Router.RunQuery(q)
	c.qcalls.Add(1)
	c.qhits.Add(int64(len(hits)))
	c.end(kindQuery, "mcat.RunQuery", s, err)
	return hits, err
}

func (c *catLayer) QueryPartial(q mcat.Query) ([]mcat.Hit, []string, error) {
	s := c.t.begin()
	hits, partial, err := c.Router.QueryPartial(q)
	c.qcalls.Add(1)
	c.qhits.Add(int64(len(hits)))
	c.end(kindQuery, "mcat.QueryPartial", s, err)
	return hits, partial, err
}

// ---- storage ----

// storeCounts is the cumulative record of every storage wrapper.
type storeCounts struct {
	Opens        int64
	Creates      int64
	BusyNs       int64 // traced calls only
	BytesRead    int64
	BytesWritten int64
	Errors       int64
}

// storeStats is shared by the wrappers of every vault.
type storeStats struct {
	t                                  *tracer
	opens, creates, busy, rd, wr, errs atomic.Int64
}

func (s *storeStats) counts() storeCounts {
	return storeCounts{
		Opens: s.opens.Load(), Creates: s.creates.Load(), BusyNs: s.busy.Load(),
		BytesRead: s.rd.Load(), BytesWritten: s.wr.Load(), Errors: s.errs.Load(),
	}
}

func (s *storeStats) end(name string, start int64, err error) {
	if err != nil && !errors.Is(err, io.EOF) {
		s.errs.Add(1)
	}
	if start == 0 {
		return
	}
	now := time.Now().UnixNano()
	s.busy.Add(now - start)
	s.t.spans.add(s.t.run, name, start, now)
}

// layerDriver wraps one vault's driver, as storage.Instrument does, and
// keeps the optional UsageReporter passthrough.
func layerDriver(d storage.Driver, st *storeStats) storage.Driver {
	if u, ok := d.(storage.UsageReporter); ok {
		return &layerUsage{layerStore{d: d, s: st}, u}
	}
	return &layerStore{d: d, s: st}
}

type layerStore struct {
	d storage.Driver
	s *storeStats
}

type layerUsage struct {
	layerStore
	u storage.UsageReporter
}

func (l *layerUsage) Usage() storage.Usage { return l.u.Usage() }

func (l *layerStore) Create(p string) (storage.WriteFile, error) {
	s := l.s.t.begin()
	w, err := l.d.Create(p)
	l.s.end("storage.Create", s, err)
	if err != nil {
		return nil, err
	}
	l.s.creates.Add(1)
	return &layerWriter{w: w, s: l.s}, nil
}

func (l *layerStore) OpenAppend(p string) (storage.WriteFile, error) {
	s := l.s.t.begin()
	w, err := l.d.OpenAppend(p)
	l.s.end("storage.OpenAppend", s, err)
	if err != nil {
		return nil, err
	}
	l.s.creates.Add(1)
	return &layerWriter{w: w, s: l.s}, nil
}

func (l *layerStore) Open(p string) (storage.ReadFile, error) {
	s := l.s.t.begin()
	r, err := l.d.Open(p)
	l.s.end("storage.Open", s, err)
	if err != nil {
		return nil, err
	}
	l.s.opens.Add(1)
	return &layerReader{r: r, s: l.s}, nil
}

func (l *layerStore) Stat(p string) (storage.FileInfo, error) {
	s := l.s.t.begin()
	fi, err := l.d.Stat(p)
	l.s.end("storage.Stat", s, err)
	return fi, err
}

func (l *layerStore) Remove(p string) error {
	s := l.s.t.begin()
	err := l.d.Remove(p)
	l.s.end("storage.Remove", s, err)
	return err
}

func (l *layerStore) Rename(oldPath, newPath string) error {
	s := l.s.t.begin()
	err := l.d.Rename(oldPath, newPath)
	l.s.end("storage.Rename", s, err)
	return err
}

func (l *layerStore) List(dir string) ([]storage.FileInfo, error) {
	s := l.s.t.begin()
	infos, err := l.d.List(dir)
	l.s.end("storage.List", s, err)
	return infos, err
}

func (l *layerStore) Mkdir(p string) error {
	s := l.s.t.begin()
	err := l.d.Mkdir(p)
	l.s.end("storage.Mkdir", s, err)
	return err
}

type layerWriter struct {
	w storage.WriteFile
	s *storeStats
}

func (w *layerWriter) Write(p []byte) (int, error) {
	s := w.s.t.begin()
	n, err := w.w.Write(p)
	w.s.wr.Add(int64(n))
	w.s.end("storage.Write", s, err)
	return n, err
}

func (w *layerWriter) Close() error {
	s := w.s.t.begin()
	err := w.w.Close()
	w.s.end("storage.Close", s, err)
	return err
}

type layerReader struct {
	r storage.ReadFile
	s *storeStats
}

func (r *layerReader) Read(p []byte) (int, error) {
	s := r.s.t.begin()
	n, err := r.r.Read(p)
	r.s.rd.Add(int64(n))
	r.s.end("storage.Read", s, err)
	return n, err
}

func (r *layerReader) ReadAt(p []byte, off int64) (int, error) {
	s := r.s.t.begin()
	n, err := r.r.ReadAt(p, off)
	r.s.rd.Add(int64(n))
	r.s.end("storage.ReadAt", s, err)
	return n, err
}

func (r *layerReader) Seek(off int64, whence int) (int64, error) {
	return r.r.Seek(off, whence)
}

func (r *layerReader) Close() error {
	s := r.s.t.begin()
	err := r.r.Close()
	r.s.end("storage.Close", s, err)
	return err
}
