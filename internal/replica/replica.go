// Package replica implements SRB replication management: synchronous
// replication into logical resources, replica selection with automatic
// failover ("the system automatically redirecting access to a replica
// on a separate storage system when the first storage system is
// unavailable", paper §3.4), dirty-replica synchronisation, and the
// physical move of a replica between resources.
package replica

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// DriverMap resolves a resource name to its storage driver. The broker
// provides it; tests provide fakes.
type DriverMap interface {
	Driver(resource string) (storage.Driver, error)
}

// Policy selects among equivalent clean replicas on read.
type Policy int

const (
	// FirstAlive always reads the lowest-numbered clean replica whose
	// resource is online — SRB 1.1.8's behaviour.
	FirstAlive Policy = iota
	// RoundRobin rotates across clean online replicas, spreading load
	// (the paper's load-balancing rationale for replication, §3.2).
	RoundRobin
)

// Catalog is the slice of the metadata catalog the replica manager
// consumes. Both *mcat.Catalog and the shard router satisfy it.
type Catalog interface {
	GetObject(path string) (types.DataObject, error)
	GetResource(name string) (types.Resource, error)
	UpdateObject(path string, fn func(*types.DataObject) error) error
}

// Manager performs replica operations against one catalog.
type Manager struct {
	cat     Catalog
	drivers DriverMap
	policy  Policy
	rr      atomic.Uint64

	// fanoutOK / fanoutFail count individual replica writes during
	// synchronous fan-out (WriteAll, SyncDirty, Replicate): one logical
	// write touching k replicas records k outcomes. failover counts
	// reads served by a non-first candidate — the paper's automatic
	// redirection (§3.4) made visible.
	fanoutOK   *obs.Counter
	fanoutFail *obs.Counter
	failover   *obs.Counter

	// breakers, when set, vetoes replicas whose resource breaker is open
	// and records per-resource outcomes, so repeated driver failures
	// route reads to healthy replicas before the driver is even tried.
	breakers *resilience.Set

	// peers, when set, is the transfer observatory: every whole-object
	// read contributes a per-resource latency/bandwidth observation —
	// the observed history a cost-model replica selector ranks by.
	peers *obs.PeerHistory

	// heat, when set, is the hot-object table: every whole-object read
	// records the object path, feeding the heat observatory's per-object
	// view (and, downstream, replica-selection cost models).
	heat *obs.HeatTable

	// heatReg keeps the registry handle so SetHeatTracking can re-attach
	// the table after a benchmark baseline detached it.
	heatReg *obs.Registry
}

// SetMetrics attaches fan-out counters from the registry (nil detaches).
func (m *Manager) SetMetrics(r *obs.Registry) {
	m.fanoutOK = r.Counter("replica.fanout.ok")
	m.fanoutFail = r.Counter("replica.fanout.fail")
	m.failover = r.Counter("replica.read.failover")
	m.peers = r.Peers()
	m.heat = r.HeatObjects()
	m.heatReg = r
}

// SetHeatTracking switches hot-object recording on or off while leaving
// the rest of the instrumentation attached (the heat-overhead benchmark
// baseline).
func (m *Manager) SetHeatTracking(on bool) {
	if on {
		m.heat = m.heatReg.HeatObjects()
	} else {
		m.heat = nil
	}
}

// SetBreakers attaches the per-resource circuit breakers (nil disables
// breaker-aware selection).
func (m *Manager) SetBreakers(s *resilience.Set) { m.breakers = s }

// breaker returns the breaker guarding a resource (nil when disabled).
func (m *Manager) breaker(resource string) *resilience.Breaker {
	return m.breakers.For("resource." + resource)
}

// NewManager returns a Manager with the FirstAlive policy.
func NewManager(cat Catalog, drivers DriverMap) *Manager {
	return &Manager{cat: cat, drivers: drivers}
}

// SetPolicy changes the read-selection policy.
func (m *Manager) SetPolicy(p Policy) { m.policy = p }

// PhysPathFor allocates the canonical physical path for replica n of an
// object: a vault layout keyed by object ID so renames in the logical
// name space never require physical moves.
func PhysPathFor(o *types.DataObject, n types.ReplicaNumber) string {
	return fmt.Sprintf("/vault/%03d/oid%d.r%d", o.ID%512, o.ID, n)
}

// Checksum computes the hex SHA-256 the catalog stores for replicas.
func Checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// candidates returns the clean replicas on online resources in replica
// order, rotated when the policy is RoundRobin. Breaker decisions are
// annotated onto sp when the read is traced.
func (m *Manager) candidates(o *types.DataObject, prefer string, sp *obs.Span) []types.Replica {
	var clean []types.Replica
	for _, r := range o.Replicas {
		if r.Status != types.ReplicaClean {
			continue
		}
		res, err := m.cat.GetResource(r.Resource)
		if err != nil || !res.Online {
			continue
		}
		// An open breaker means the resource's driver has been failing:
		// route around it until a half-open probe proves it back.
		switch m.breaker(r.Resource).State() {
		case resilience.Open:
			sp.Event(obs.EventBreakerFast, "resource."+r.Resource)
			continue
		case resilience.HalfOpen:
			sp.Event(obs.EventBreakerProbe, "resource."+r.Resource)
		}
		clean = append(clean, r)
	}
	if len(clean) == 0 {
		return nil
	}
	if prefer != "" {
		for i, r := range clean {
			if r.Resource == prefer {
				clean[0], clean[i] = clean[i], clean[0]
				break
			}
		}
		return clean
	}
	if m.policy == RoundRobin && len(clean) > 1 {
		k := int(m.rr.Add(1)) % len(clean)
		rotated := make([]types.Replica, 0, len(clean))
		rotated = append(rotated, clean[k:]...)
		rotated = append(rotated, clean[:k]...)
		return rotated
	}
	return clean
}

// OpenRead opens the object's bytes for reading, trying clean replicas
// per the policy and failing over past unavailable resources. It
// returns the replica served.
func (m *Manager) OpenRead(path, preferResource string) (storage.ReadFile, types.Replica, error) {
	return m.OpenReadEv(path, preferResource, nil)
}

// OpenReadEv is OpenRead with trace-span annotation: breaker trips,
// fast-fails, half-open probes, failovers and cache hits along the
// replica selection land as events on sp (nil sp = untraced).
func (m *Manager) OpenReadEv(path, preferResource string, sp *obs.Span) (storage.ReadFile, types.Replica, error) {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return nil, types.Replica{}, err
	}
	cands := m.candidates(&o, preferResource, sp)
	if len(cands) == 0 {
		return nil, types.Replica{}, types.E("open", path, types.ErrOffline)
	}
	var lastErr error
	for i, r := range cands {
		attempt := time.Now()
		d, err := m.drivers.Driver(r.Resource)
		if err != nil {
			// No local driver usually means a remote resource; that is
			// not the resource failing, so the breaker stays untouched
			// and a real failure from another replica keeps precedence
			// as the reported (retryable) cause.
			sp.Phase(obs.PhaseReplicaAttempt, time.Since(attempt))
			if lastErr == nil {
				lastErr = err
			}
			continue
		}
		openStart := time.Now()
		f, err := d.Open(r.PhysicalPath)
		openDur := time.Since(openStart)
		if err != nil {
			sp.Phase(obs.PhaseReplicaAttempt, time.Since(attempt))
			if resilience.Retryable(err) {
				if m.breaker(r.Resource).Failure() {
					sp.Event(obs.EventBreakerTrip, "resource."+r.Resource)
				}
			}
			lastErr = err
			continue
		}
		sp.Phase(obs.PhaseStorageOpen, openDur)
		sp.Phase(obs.PhaseReplicaAttempt, time.Since(attempt))
		m.breaker(r.Resource).Success()
		if i > 0 {
			m.failover.Inc()
			sp.Event(obs.EventFailover, fmt.Sprintf("replica %d on %s", r.Number, r.Resource))
		}
		if sp != nil {
			if res, err := m.cat.GetResource(r.Resource); err == nil && res.Class == types.ClassCache {
				sp.Event(obs.EventCacheHit, r.Resource)
			}
		}
		return f, r, nil
	}
	if lastErr == nil {
		lastErr = types.ErrOffline
	}
	return nil, types.Replica{}, types.E("open", path, lastErr)
}

// ReadAll retrieves the full contents via OpenRead.
func (m *Manager) ReadAll(path, preferResource string) ([]byte, types.Replica, error) {
	return m.ReadAllEv(path, preferResource, nil)
}

// ReadAllEv is ReadAll with trace-span annotation (see OpenReadEv).
// The observatory row charges the whole driver interaction — open plus
// read — since that is the transfer cost a replica selector would pay.
func (m *Manager) ReadAllEv(path, preferResource string, sp *obs.Span) ([]byte, types.Replica, error) {
	start := time.Now()
	f, r, err := m.OpenReadEv(path, preferResource, sp)
	if err != nil {
		sp.Phase(obs.PhaseStorageRead, time.Since(start))
		return nil, r, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	dur := time.Since(start)
	sp.Phase(obs.PhaseStorageRead, dur)
	m.peers.Record("", r.Resource, dur, int64(len(data)), err != nil)
	m.heat.Record(path, int64(len(data)))
	if err != nil {
		return nil, r, types.E("read", path, err)
	}
	return data, r, nil
}

// OpenStreamEv opens the object for a whole-object read the caller
// streams: ReadAllEv without the read. The storage.read phase covers
// the open; the observatory row and the hot-object record are written
// at Close, charging the bytes served and the time since the open.
func (m *Manager) OpenStreamEv(path string, sp *obs.Span) (io.ReadCloser, int64, error) {
	start := time.Now()
	f, r, err := m.OpenReadEv(path, "", sp)
	sp.Phase(obs.PhaseStorageRead, time.Since(start))
	if err != nil {
		return nil, 0, err
	}
	return &streamRead{f: f, m: m, path: path, resource: r.Resource, start: start}, r.Size, nil
}

// streamRead is an open replica being streamed out (see OpenStreamEv).
type streamRead struct {
	f        storage.ReadFile
	m        *Manager
	path     string
	resource string
	start    time.Time
	n        int64
	failed   bool
}

func (s *streamRead) Read(p []byte) (int, error) {
	n, err := s.f.Read(p)
	s.n += int64(n)
	if err != nil && err != io.EOF {
		s.failed = true
	}
	return n, err
}

func (s *streamRead) Close() error {
	s.m.peers.Record("", s.resource, time.Since(s.start), s.n, s.failed)
	s.m.heat.Record(s.path, s.n)
	return s.f.Close()
}

// WriteAll overwrites the object's contents: the bytes land on every
// clean online replica; replicas whose resource is unreachable are
// marked dirty for later synchronisation.
func (m *Manager) WriteAll(path string, data []byte) error {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return err
	}
	if o.Kind != types.KindFile {
		return types.E("write", path, types.ErrUnsupported)
	}
	sum := Checksum(data)
	written := make(map[types.ReplicaNumber]bool)
	// torn marks replicas whose write was attempted and failed: the
	// physical file may be truncated, so the replica row must not stay
	// catalogued clean even when every sibling write fails too.
	torn := make(map[types.ReplicaNumber]bool)
	var failRes string
	var failErr error
	for _, r := range o.Replicas {
		res, err := m.cat.GetResource(r.Resource)
		if err != nil || !res.Online {
			m.fanoutFail.Inc()
			failRes = r.Resource
			continue
		}
		d, err := m.drivers.Driver(r.Resource)
		if err != nil {
			m.fanoutFail.Inc()
			failRes, failErr = r.Resource, err
			continue
		}
		if err := storage.WriteAll(d, r.PhysicalPath, data); err != nil {
			m.fanoutFail.Inc()
			m.breaker(r.Resource).Failure()
			torn[r.Number] = true
			failRes, failErr = r.Resource, err
			continue
		}
		m.fanoutOK.Inc()
		m.breaker(r.Resource).Success()
		written[r.Number] = true
	}
	uerr := m.cat.UpdateObject(path, func(o *types.DataObject) error {
		if len(written) > 0 {
			o.Size = int64(len(data))
			o.Checksum = sum
		}
		for i := range o.Replicas {
			r := &o.Replicas[i]
			switch {
			case written[r.Number]:
				r.Status = types.ReplicaClean
				r.Size = int64(len(data))
				r.Checksum = sum
			case len(written) > 0 || torn[r.Number]:
				// Stale relative to the new contents, or possibly a
				// truncated file: either way not servable as clean.
				r.Status = types.ReplicaDirty
			}
			// Otherwise the write never touched this replica and nothing
			// was stored anywhere: the old contents remain authoritative.
		}
		return nil
	})
	if len(written) == 0 {
		if failErr == nil {
			failErr = types.ErrOffline
		}
		return types.E("write", path, fmt.Errorf("resource %s: %w", failRes, failErr))
	}
	return uerr
}

// Replicate creates a new replica of the object on resource. The new
// replica inherits the object's metadata implicitly (metadata is keyed
// by the logical path) and receives the next replica number.
func (m *Manager) Replicate(path, resource string) (types.Replica, error) {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return types.Replica{}, err
	}
	if o.Kind != types.KindFile {
		return types.Replica{}, types.E("replicate", path, types.ErrUnsupported)
	}
	if o.Container != "" {
		// Files inside containers replicate with their container.
		return types.Replica{}, types.E("replicate", path, types.ErrUnsupported)
	}
	res, err := m.cat.GetResource(resource)
	if err != nil {
		return types.Replica{}, err
	}
	if res.Kind != types.ResourcePhysical {
		return types.Replica{}, types.E("replicate", resource, types.ErrInvalid)
	}
	if !res.Online {
		return types.Replica{}, types.E("replicate", resource, types.ErrOffline)
	}
	src, _, err := m.OpenRead(path, "")
	if err != nil {
		return types.Replica{}, err
	}
	defer src.Close()
	next := nextNumber(&o)
	physPath := PhysPathFor(&o, next)
	dst, err := m.drivers.Driver(resource)
	if err != nil {
		return types.Replica{}, err
	}
	w, err := dst.Create(physPath)
	if err != nil {
		return types.Replica{}, err
	}
	h := sha256.New()
	size, err := io.Copy(w, io.TeeReader(src, h))
	if err != nil {
		storage.Discard(dst, physPath, w) // no orphaned partial file
		m.fanoutFail.Inc()
		return types.Replica{}, types.E("replicate", path, err)
	}
	if err := w.Close(); err != nil {
		dst.Remove(physPath)
		m.fanoutFail.Inc()
		return types.Replica{}, types.E("replicate", path, err)
	}
	m.fanoutOK.Inc()
	newRep := types.Replica{
		Number:       next,
		Resource:     resource,
		PhysicalPath: physPath,
		Status:       types.ReplicaClean,
		Size:         size,
		Checksum:     hex.EncodeToString(h.Sum(nil)),
	}
	err = m.cat.UpdateObject(path, func(o *types.DataObject) error {
		newRep.CreatedAt = o.ModifiedAt
		o.Replicas = append(o.Replicas, newRep)
		return nil
	})
	if err != nil {
		return types.Replica{}, err
	}
	return newRep, nil
}

func nextNumber(o *types.DataObject) types.ReplicaNumber {
	next := types.ReplicaNumber(0)
	for _, r := range o.Replicas {
		if r.Number >= next {
			next = r.Number + 1
		}
	}
	return next
}

// SyncDirty brings every dirty replica of the object up to date from a
// clean one and returns how many replicas were refreshed.
func (m *Manager) SyncDirty(path string) (int, error) {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return 0, err
	}
	var dirty []types.Replica
	for _, r := range o.Replicas {
		if r.Status == types.ReplicaDirty {
			dirty = append(dirty, r)
		}
	}
	if len(dirty) == 0 {
		return 0, nil
	}
	data, _, err := m.ReadAll(path, "")
	if err != nil {
		return 0, err
	}
	sum := Checksum(data)
	fixed := make(map[types.ReplicaNumber]bool)
	for _, r := range dirty {
		res, err := m.cat.GetResource(r.Resource)
		if err != nil || !res.Online {
			m.fanoutFail.Inc()
			continue
		}
		d, err := m.drivers.Driver(r.Resource)
		if err != nil {
			m.fanoutFail.Inc()
			continue
		}
		if err := storage.WriteAll(d, r.PhysicalPath, data); err != nil {
			m.fanoutFail.Inc()
			continue
		}
		m.fanoutOK.Inc()
		fixed[r.Number] = true
	}
	if len(fixed) == 0 {
		return 0, nil
	}
	err = m.cat.UpdateObject(path, func(o *types.DataObject) error {
		for i := range o.Replicas {
			r := &o.Replicas[i]
			if fixed[r.Number] {
				r.Status = types.ReplicaClean
				r.Size = int64(len(data))
				r.Checksum = sum
			}
		}
		return nil
	})
	return len(fixed), err
}

// SyncResource rewrites the non-clean replica(s) of path held on one
// resource from a clean sibling — the targeted variant of SyncDirty the
// repair engine uses to execute one queued task. Unlike SyncDirty it
// returns an error whenever the replica could not be brought clean
// (offline resource, missing driver, no clean source, write failure) so
// the engine can reschedule the task with backoff.
func (m *Manager) SyncResource(path, resource string) error {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return err
	}
	var targets []types.Replica
	for _, r := range o.Replicas {
		if r.Resource == resource && r.Status != types.ReplicaClean {
			targets = append(targets, r)
		}
	}
	if len(targets) == 0 {
		return nil
	}
	res, err := m.cat.GetResource(resource)
	if err != nil {
		return err
	}
	if !res.Online {
		return types.E("syncres", resource, types.ErrOffline)
	}
	d, err := m.drivers.Driver(resource)
	if err != nil {
		return err
	}
	data, _, err := m.ReadAll(path, "")
	if err != nil {
		return err
	}
	sum := Checksum(data)
	fixed := make(map[types.ReplicaNumber]bool)
	for _, r := range targets {
		if err := storage.WriteAll(d, r.PhysicalPath, data); err != nil {
			m.fanoutFail.Inc()
			return types.E("syncres", path, err)
		}
		m.fanoutOK.Inc()
		fixed[r.Number] = true
	}
	return m.cat.UpdateObject(path, func(o *types.DataObject) error {
		for i := range o.Replicas {
			r := &o.Replicas[i]
			if fixed[r.Number] {
				r.Status = types.ReplicaClean
				r.Size = int64(len(data))
				r.Checksum = sum
			}
		}
		return nil
	})
}

// PhysicalMove relocates one replica to a new resource, preserving its
// replica number — the paper's "physical move of the object".
func (m *Manager) PhysicalMove(path string, number types.ReplicaNumber, toResource string) error {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return err
	}
	if o.Container != "" {
		return types.E("physmove", path, types.ErrUnsupported)
	}
	rep, ok := o.ReplicaByNumber(number)
	if !ok {
		return types.E("physmove", path, types.ErrNotFound)
	}
	res, err := m.cat.GetResource(toResource)
	if err != nil {
		return err
	}
	if res.Kind != types.ResourcePhysical || !res.Online {
		return types.E("physmove", toResource, types.ErrInvalid)
	}
	srcD, err := m.drivers.Driver(rep.Resource)
	if err != nil {
		return err
	}
	dstD, err := m.drivers.Driver(toResource)
	if err != nil {
		return err
	}
	newPath := PhysPathFor(&o, number)
	if _, err := storage.Copy(dstD, newPath, srcD, rep.PhysicalPath); err != nil {
		return types.E("physmove", path, err)
	}
	if err := m.cat.UpdateObject(path, func(o *types.DataObject) error {
		for i := range o.Replicas {
			if o.Replicas[i].Number == number {
				o.Replicas[i].Resource = toResource
				o.Replicas[i].PhysicalPath = newPath
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Old bytes are removed best-effort; the new replica is authoritative.
	srcD.Remove(rep.PhysicalPath)
	return nil
}

// DeleteReplica removes one replica's bytes and catalog record. The
// last replica of an object cannot be removed this way — deleting the
// object handles that ("when the last replica is deleted all the
// metadata and annotations are also deleted", which is the broker's
// job).
func (m *Manager) DeleteReplica(path string, number types.ReplicaNumber) error {
	o, err := m.cat.GetObject(path)
	if err != nil {
		return err
	}
	rep, ok := o.ReplicaByNumber(number)
	if !ok {
		return types.E("rmreplica", path, types.ErrNotFound)
	}
	if len(o.Replicas) <= 1 {
		return types.E("rmreplica", path, types.ErrInvalid)
	}
	if !rep.Registered {
		if d, err := m.drivers.Driver(rep.Resource); err == nil {
			d.Remove(rep.PhysicalPath)
		}
	}
	return m.cat.UpdateObject(path, func(o *types.DataObject) error {
		kept := o.Replicas[:0:0]
		for _, r := range o.Replicas {
			if r.Number != number {
				kept = append(kept, r)
			}
		}
		o.Replicas = kept
		return nil
	})
}
