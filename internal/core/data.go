package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"strings"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/replica"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// ---- collections ----

// Mkdir creates a sub-collection; the user needs Write on the parent.
func (b *Broker) Mkdir(user, path string) error {
	parent := types.Parent(path)
	if !b.Cat.CollExists(parent) {
		return types.E("mkdir", parent, types.ErrNotFound)
	}
	if err := b.need(user, parent, acl.Write, "mkdir"); err != nil {
		return err
	}
	if err := b.Cat.MkColl(path, user); err != nil {
		return err
	}
	b.audit(user, "mkdir", path, true, "")
	return nil
}

// List returns the members of a collection the user may read.
func (b *Broker) List(user, path string) ([]types.Stat, error) {
	start := time.Now()
	stats, err := b.list(user, path)
	b.ops.list.Done(start, err)
	b.ops.heat.Record(shard.KeyOf(path), 0)
	return stats, err
}

func (b *Broker) list(user, path string) ([]types.Stat, error) {
	if err := b.need(user, path, acl.Read, "list"); err != nil {
		return nil, err
	}
	stats, err := b.Cat.ListColl(path)
	if err != nil {
		return nil, err
	}
	b.audit(user, "list", path, true, "")
	return stats, nil
}

// StatPath describes a collection or object.
func (b *Broker) StatPath(user, path string) (types.Stat, error) {
	if err := b.need(user, path, acl.Read, "stat"); err != nil {
		return types.Stat{}, err
	}
	if col, err := b.Cat.GetColl(path); err == nil {
		return types.Stat{Path: col.Path, IsCollect: true, Owner: col.Owner, ModifiedAt: col.CreatedAt}, nil
	}
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return types.Stat{}, err
	}
	return types.Stat{
		Path: o.Path(), Kind: o.Kind, DataType: o.DataType, Owner: o.Owner,
		Size: o.Size, ModifiedAt: o.ModifiedAt, Replicas: len(o.Replicas), Container: o.Container,
	}, nil
}

// RmColl removes an empty collection; Own on the collection required.
func (b *Broker) RmColl(user, path string) error {
	if err := b.need(user, path, acl.Own, "rmcoll"); err != nil {
		return err
	}
	if err := b.Cat.DeleteColl(path); err != nil {
		return err
	}
	b.audit(user, "rmcoll", path, true, "")
	return nil
}

// ---- ingestion ----

// IngestOpts parameterise Ingest.
type IngestOpts struct {
	// Path is the logical destination.
	Path string
	// Data streams the object contents; nil ingests an empty object.
	// Ingest reads it once, with io.Copy: a reader that implements
	// io.WriterTo picks the size of each storage write.
	Data io.Reader
	// Resource names the target (physical or logical) resource. Ignored
	// when Container is set: "a container specification on ingestion
	// overrides a resource specification" (paper §5).
	Resource string
	// Container is the logical path of the container to append into.
	Container string
	// DataType tags the object (e.g. "fits image").
	DataType string
	// Meta is user metadata supplied at ingestion; it must satisfy the
	// target collection's mandatory structural attributes.
	Meta []types.AVU
	// Span, when non-nil, receives latency-decomposition phase
	// annotations (mcat.lookup, storage.write) along the ingest.
	Span *obs.Span
}

// Ingest stores a new data object. The user needs Write on the target
// collection and on the resource.
func (b *Broker) Ingest(user string, opts IngestOpts) (types.DataObject, error) {
	start := time.Now()
	if opts.Data == nil {
		opts.Data = bytes.NewReader(nil)
	}
	o, err := b.ingest(user, opts)
	b.ops.ingest.Done(start, err)
	b.ops.heat.Record(shard.KeyOf(opts.Path), o.Size)
	return o, err
}

func (b *Broker) ingest(user string, opts IngestOpts) (types.DataObject, error) {
	lookup := time.Now()
	path := types.CleanPath(opts.Path)
	coll, name := types.Parent(path), types.Base(path)
	if !types.ValidName(name) {
		return types.DataObject{}, types.E("ingest", path, types.ErrInvalid)
	}
	if !b.Cat.CollExists(coll) {
		return types.DataObject{}, types.E("ingest", coll, types.ErrNotFound)
	}
	if err := b.need(user, coll, acl.Write, "ingest"); err != nil {
		return types.DataObject{}, err
	}
	if missing := b.Cat.CheckMandatory(coll, opts.Meta); len(missing) > 0 {
		b.audit(user, "ingest", path, false, "missing mandatory metadata: "+strings.Join(missing, ","))
		return types.DataObject{}, types.E("ingest", path, types.ErrMandatoryMeta)
	}
	if opts.Container != "" {
		return b.ingestIntoContainer(user, path, opts)
	}
	if opts.Resource == "" {
		return types.DataObject{}, types.E("ingest", path, types.ErrInvalid)
	}
	if b.Cat.ResourceLevel(opts.Resource, user) < acl.Write {
		b.audit(user, "ingest", path, false, "resource permission")
		return types.DataObject{}, types.E("ingest", opts.Resource, types.ErrPermission)
	}
	members, err := b.Cat.ResolvePhysical(opts.Resource)
	if err != nil {
		return types.DataObject{}, err
	}
	// Everything up to here resolved names, ACLs and resources against
	// the catalog — attribute it to the mcat.lookup phase.
	opts.Span.Phase(obs.PhaseMCATLookup, time.Since(lookup))
	dataType := opts.DataType
	if dataType == "" {
		dataType = "generic"
	}
	obj := &types.DataObject{Name: name, Collection: coll, Owner: user, Kind: types.KindFile, DataType: dataType}
	id, err := b.Cat.RegisterObject(obj)
	if err != nil {
		return types.DataObject{}, err
	}
	obj.ID = id
	// RegisterObject resolves linked sub-collections, so the effective
	// path may differ from the requested one.
	path = obj.Path()
	// Replication policy: the sync default lands the file on every
	// member on the write path; an async:k policy writes the first k
	// members that open and defers the rest (plus any members that
	// failed) to the repair queue as dirty placeholders.
	syncTarget := len(members)
	async := false
	if res, rerr := b.Cat.GetResource(opts.Resource); rerr == nil {
		if k, a, perr := types.ParseReplPolicy(res.ReplPolicy); perr == nil && a {
			syncTarget, async = k, true
		}
	}
	writeStart := time.Now()
	reps := make([]types.Replica, len(members))
	fw := &fanout{sum: sha256.New()}
	for i, m := range members {
		reps[i] = types.Replica{
			Number:       types.ReplicaNumber(i),
			Resource:     m.Name,
			PhysicalPath: replica.PhysPathFor(obj, types.ReplicaNumber(i)),
			Status:       types.ReplicaDirty,
			CreatedAt:    b.now(),
		}
		if len(fw.ws) == syncTarget {
			continue
		}
		d, derr := b.Driver(m.Name)
		if derr == nil && m.Online {
			if w, werr := d.Create(reps[i].PhysicalPath); werr == nil {
				fw.ws = append(fw.ws, fanWriter{rep: &reps[i], d: d, w: w})
				continue
			}
		}
		b.ops.fanoutFail.Inc()
	}
	// One pass over the data feeds every synchronous member.
	var rerr error
	if len(fw.ws) > 0 {
		_, rerr = io.Copy(fw, opts.Data)
		if errors.Is(rerr, errNoMember) {
			rerr = nil
		}
	}
	sum := hex.EncodeToString(fw.sum.Sum(nil))
	wrote := 0
	for _, m := range fw.ws {
		switch {
		case m.err != nil:
			// Discarded when its write failed.
		case rerr != nil:
			storage.Discard(m.d, m.rep.PhysicalPath, m.w)
		default:
			if m.err = m.w.Close(); m.err == nil {
				m.rep.Status, m.rep.Size, m.rep.Checksum = types.ReplicaClean, fw.n, sum
				wrote++
				b.ops.fanoutOK.Inc()
				continue
			}
		}
		b.ops.fanoutFail.Inc()
	}
	opts.Span.Phase(obs.PhaseStorageWrite, time.Since(writeStart))
	if rerr != nil {
		// The data stream broke off: no replica and no row may keep a
		// prefix of it.
		b.Cat.DeleteObject(path)
		b.audit(user, "ingest", path, false, "data stream: "+rerr.Error())
		return types.DataObject{}, types.E("ingest", path, rerr)
	}
	if wrote == 0 {
		b.Cat.DeleteObject(path)
		b.audit(user, "ingest", path, false, "no online member of "+opts.Resource)
		return types.DataObject{}, types.E("ingest", path, types.ErrOffline)
	}
	err = b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		o.Size = fw.n
		o.Checksum = sum
		o.Replicas = reps
		return nil
	})
	if err != nil {
		return types.DataObject{}, err
	}
	if async {
		// Deferred fan-out: every replica the write path did not land
		// becomes a journaled repair task; the dirty rows written above
		// make the work visible to the scrubber even if the enqueue is
		// lost.
		queued := false
		for _, rep := range reps {
			if rep.Status != types.ReplicaClean {
				if b.Cat.EnqueueRepair(types.RepairTask{
					Path: path, Resource: rep.Resource,
					Kind: "replicate", Reason: "async fan-out of " + opts.Resource,
				}) {
					queued = true
				}
			}
		}
		if queued {
			b.repairKick()
		}
	}
	for _, avu := range opts.Meta {
		if err := b.Cat.AddMeta(path, types.MetaUser, avu); err != nil {
			return types.DataObject{}, err
		}
	}
	b.audit(user, "ingest", path, true, fmt.Sprintf("%d bytes on %s (%d replicas)", fw.n, opts.Resource, len(reps)))
	return b.Cat.GetObject(path)
}

// errNoMember stops an ingest copy once every member write has failed.
var errNoMember = errors.New("no member left to write")

// fanout is an ingest's one-pass writer: each write feeds the SHA-256
// and the byte count, then every member still writing. A member whose
// write fails is dropped, its handle discarded, and the others carry
// on; the copy stops only when none is left.
type fanout struct {
	sum hash.Hash
	n   int64
	ws  []fanWriter
}

// fanWriter is one synchronous member of an ingest fan-out.
type fanWriter struct {
	rep *types.Replica
	d   storage.Driver
	w   storage.WriteFile
	err error
}

func (f *fanout) Write(p []byte) (int, error) {
	f.sum.Write(p)
	f.n += int64(len(p))
	live := 0
	for i := range f.ws {
		m := &f.ws[i]
		if m.err != nil {
			continue
		}
		if _, m.err = m.w.Write(p); m.err != nil {
			storage.Discard(m.d, m.rep.PhysicalPath, m.w)
			continue
		}
		live++
	}
	if live == 0 {
		return 0, errNoMember
	}
	return len(p), nil
}

// Reingest replaces an object's contents, keeping all metadata linked
// ("a user can reingest a file, i.e. all metadata associated with the
// file by the SRB are still linked to it").
func (b *Broker) Reingest(user, path string, data []byte) error {
	start := time.Now()
	err := b.reingest(user, path, data)
	b.ops.reingest.Done(start, err)
	return err
}

func (b *Broker) reingest(user, path string, data []byte) error {
	o, err := b.checkWrite(user, path, "reingest")
	if err != nil {
		return err
	}
	switch {
	case o.Kind != types.KindFile:
		return types.E("reingest", path, types.ErrUnsupported)
	case o.Container != "":
		return b.reingestContainerMember(user, path, data)
	}
	if err := b.rm.WriteAll(path, data); err != nil {
		return err
	}
	b.audit(user, "reingest", path, true, fmt.Sprintf("%d bytes", len(data)))
	return nil
}

// ---- retrieval ----

// Get retrieves an object's contents, dispatching on its kind: files
// read from a clean replica (or their container), registered files read
// in place, SQL objects execute, URLs fetch, method objects run, and
// links resolve to their target.
func (b *Broker) Get(user, path string) ([]byte, error) {
	return b.GetTraced(user, path, nil)
}

// GetTraced is Get under a trace span: replica failovers, breaker
// decisions and cache/container hits along the read are annotated onto
// sp, and the audit record carries the trace ID (nil sp = plain Get).
func (b *Broker) GetTraced(user, path string, sp *obs.Span) ([]byte, error) {
	data, _, _, err := b.GetStream(user, path, math.MaxInt64, sp)
	return data, err
}

// GetStream is GetTraced for a caller that streams: a plain file object
// of more than inline bytes comes back open, as its replica reader and
// size, for the caller to read and close. Every other object is read
// whole, exactly as GetTraced reads it, and comes back as data.
func (b *Broker) GetStream(user, path string, inline int64, sp *obs.Span) (data []byte, f io.ReadCloser, size int64, err error) {
	start := time.Now()
	o, err := b.checkRead(user, path, "get")
	sp.Phase(obs.PhaseMCATLookup, time.Since(start))
	if err == nil {
		if o.Kind == types.KindFile && o.Container == "" && o.Size > inline {
			f, size, err = b.rm.OpenStreamEv(o.Path(), sp)
		} else {
			data, err = b.getObject(user, &o, sp)
			size = int64(len(data))
		}
		b.auditTraced(sp, user, "get", path, err == nil, "")
	}
	b.ops.get.Done(start, err)
	b.ops.heat.Record(shard.KeyOf(path), size)
	return data, f, size, err
}

func (b *Broker) getObject(user string, o *types.DataObject, sp *obs.Span) ([]byte, error) {
	switch o.Kind {
	case types.KindFile:
		if o.Container != "" {
			sp.Event(obs.EventContainerHit, o.Container)
			return b.readContainerMember(o)
		}
		data, _, err := b.rm.ReadAllEv(o.Path(), "", sp)
		return data, err
	case types.KindRegisteredFile:
		return b.readRegistered(o)
	case types.KindURL:
		data, err := b.fetcher.Fetch(o.URL)
		if err != nil && len(o.Alternates) > 0 {
			return b.readAlternates(o, err)
		}
		return data, err
	case types.KindSQL:
		return b.ExecuteSQLSpec(o, "")
	case types.KindMethod:
		return b.invokeMethod(o, nil)
	case types.KindLink:
		target, err := b.Cat.GetObject(o.LinkTarget)
		if err != nil {
			return nil, types.E("get", o.LinkTarget, types.ErrNotFound)
		}
		return b.getObject(user, &target, sp)
	case types.KindShadowDir:
		// Getting a shadow directory renders its cone listing.
		infos, err := b.shadowList(o, ".")
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		for _, fi := range infos {
			fmt.Fprintf(&sb, "%s\t%d\t%v\n", fi.Path, fi.Size, fi.IsDir)
		}
		return []byte(sb.String()), nil
	default:
		return nil, types.E("get", o.Path(), types.ErrUnsupported)
	}
}

// readRegistered reads a registered file's bytes in place, falling
// back through registered replicates.
func (b *Broker) readRegistered(o *types.DataObject) ([]byte, error) {
	rep, ok := o.CleanReplica("")
	if !ok {
		return nil, types.E("get", o.Path(), types.ErrOffline)
	}
	d, err := b.Driver(rep.Resource)
	if err == nil {
		if data, rerr := storage.ReadAll(d, rep.PhysicalPath); rerr == nil {
			return data, nil
		} else {
			err = rerr
		}
	}
	return b.readAlternates(o, err)
}

// readAlternates tries the registered replicates in order.
func (b *Broker) readAlternates(o *types.DataObject, lastErr error) ([]byte, error) {
	for _, alt := range o.Alternates {
		switch alt.Kind {
		case types.KindURL:
			if data, err := b.fetcher.Fetch(alt.URL); err == nil {
				return data, nil
			}
		case types.KindSQL:
			if alt.SQL != nil {
				tmp := *o
				tmp.SQL = alt.SQL
				if data, err := b.ExecuteSQLSpec(&tmp, ""); err == nil {
					return data, nil
				}
			}
		case types.KindRegisteredFile:
			if d, err := b.Driver(alt.Resource); err == nil {
				if data, err := storage.ReadAll(d, alt.PhysicalPath); err == nil {
					return data, nil
				}
			}
		}
	}
	return nil, types.E("get", o.Path(), lastErr)
}

// OpenRead opens a streaming reader on a file object (the bulk path the
// server uses). Container members stream their byte range.
func (b *Broker) OpenRead(user, path string) (storage.ReadFile, int64, error) {
	o, err := b.checkRead(user, path, "open")
	if err != nil {
		return nil, 0, err
	}
	if o.Kind == types.KindLink {
		o, err = b.Cat.GetObject(o.LinkTarget)
		if err != nil {
			return nil, 0, err
		}
		// All further access addresses the resolved target.
		path = o.Path()
	}
	switch o.Kind {
	case types.KindFile:
		if o.Container != "" {
			data, err := b.readContainerMember(&o)
			if err != nil {
				return nil, 0, err
			}
			return nopReadFile{strings.NewReader(string(data))}, int64(len(data)), nil
		}
		f, rep, err := b.rm.OpenRead(path, "")
		if err != nil {
			return nil, 0, err
		}
		return f, rep.Size, nil
	case types.KindRegisteredFile:
		rep, ok := o.CleanReplica("")
		if !ok {
			return nil, 0, types.E("open", path, types.ErrOffline)
		}
		d, err := b.Driver(rep.Resource)
		if err != nil {
			return nil, 0, err
		}
		f, err := d.Open(rep.PhysicalPath)
		if err != nil {
			return nil, 0, err
		}
		fi, _ := d.Stat(rep.PhysicalPath)
		return f, fi.Size, nil
	default:
		data, err := b.getObject(user, &o, nil)
		if err != nil {
			return nil, 0, err
		}
		return nopReadFile{strings.NewReader(string(data))}, int64(len(data)), nil
	}
}

// nopReadFile adapts a strings.Reader to storage.ReadFile.
type nopReadFile struct{ *strings.Reader }

func (nopReadFile) Close() error { return nil }

// ---- replication, copy, move, link, delete ----

// Replicate adds a replica on the named resource. Files inside
// registered directories are not replicable (paper §5); the replica
// manager enforces the container rule.
func (b *Broker) Replicate(user, path, resource string) (types.Replica, error) {
	start := time.Now()
	rep, err := b.replicate(user, path, resource)
	b.ops.replicate.Done(start, err)
	return rep, err
}

func (b *Broker) replicate(user, path, resource string) (types.Replica, error) {
	if _, err := b.checkWrite(user, path, "replicate"); err != nil {
		return types.Replica{}, err
	}
	if b.Cat.ResourceLevel(resource, user) < acl.Write {
		return types.Replica{}, types.E("replicate", resource, types.ErrPermission)
	}
	rep, err := b.rm.Replicate(path, resource)
	b.audit(user, "replicate", path, err == nil, resource)
	return rep, err
}

// IngestReplica stores caller-provided bytes as a new replica of an
// existing object — the paper's "ingest replica" for semantically-equal
// but syntactically-different copies (tiff vs gif). SRB does not check
// equality.
func (b *Broker) IngestReplica(user, path, resource string, data []byte) (types.Replica, error) {
	start := time.Now()
	rep, err := b.ingestReplica(user, path, resource, data)
	b.ops.ingestReplica.Done(start, err)
	return rep, err
}

func (b *Broker) ingestReplica(user, path, resource string, data []byte) (types.Replica, error) {
	o, err := b.checkWrite(user, path, "ingestreplica")
	if err != nil {
		return types.Replica{}, err
	}
	if o.Container != "" {
		return types.Replica{}, types.E("ingestreplica", path, types.ErrUnsupported)
	}
	d, err := b.Driver(resource)
	if err != nil {
		return types.Replica{}, err
	}
	next := types.ReplicaNumber(0)
	for _, r := range o.Replicas {
		if r.Number >= next {
			next = r.Number + 1
		}
	}
	physPath := replica.PhysPathFor(&o, next)
	if err := storage.WriteAll(d, physPath, data); err != nil {
		return types.Replica{}, err
	}
	rep := types.Replica{
		Number: next, Resource: resource, PhysicalPath: physPath,
		Status: types.ReplicaClean, Size: int64(len(data)),
		Checksum: replica.Checksum(data), CreatedAt: b.now(),
	}
	err = b.Cat.UpdateObject(path, func(o *types.DataObject) error {
		o.Replicas = append(o.Replicas, rep)
		return nil
	})
	b.audit(user, "ingestreplica", path, err == nil, resource)
	return rep, err
}

// Copy duplicates an object (or, recursively, a collection) to a new
// logical path. Per the paper, "the copy command does not copy any
// user-defined metadata or annotations", and the copy is entirely
// unconnected to the source. URL, SQL and method objects cannot be
// copied.
func (b *Broker) Copy(user, src, dst, resource string) error {
	if err := b.need(user, src, acl.Read, "copy"); err != nil {
		return err
	}
	if b.Cat.CollExists(src) {
		return b.copyCollection(user, src, dst, resource)
	}
	o, err := b.Cat.GetObject(src)
	if err != nil {
		return err
	}
	switch o.Kind {
	case types.KindURL, types.KindSQL, types.KindMethod:
		return types.E("copy", src, types.ErrUnsupported)
	}
	data, err := b.getObject(user, &o, nil)
	if err != nil {
		return err
	}
	if resource == "" {
		if rep, ok := o.CleanReplica(""); ok {
			resource = rep.Resource
		}
	}
	if resource == "" {
		return types.E("copy", src, types.ErrInvalid)
	}
	_, err = b.Ingest(user, IngestOpts{Path: dst, Data: bytes.NewReader(data), Resource: resource, DataType: o.DataType})
	b.audit(user, "copy", src, err == nil, "to "+dst)
	return err
}

func (b *Broker) copyCollection(user, src, dst, resource string) error {
	if err := b.Mkdir(user, dst); err != nil {
		return err
	}
	for _, st := range b.Cat.SubColls(src) {
		if err := b.Mkdir(user, types.Rebase(src, dst, st)); err != nil {
			return err
		}
	}
	for _, p := range b.Cat.SubtreeObjects(src) {
		o, err := b.Cat.GetObject(p)
		if err != nil {
			continue
		}
		switch o.Kind {
		case types.KindURL, types.KindSQL, types.KindMethod, types.KindLink:
			continue // pointer objects are not copied recursively
		}
		if err := b.Copy(user, p, types.Rebase(src, dst, p), resource); err != nil {
			return err
		}
	}
	b.audit(user, "copycoll", src, true, "to "+dst)
	return nil
}

// Move renames an object or collection within the logical name space
// (the paper's logical move: "the user-defined metadata remains
// unchanged"). The user needs Own on the source and Write on the
// destination collection.
func (b *Broker) Move(user, src, dst string) error {
	if err := b.need(user, src, acl.Own, "move"); err != nil {
		return err
	}
	dstColl := types.Parent(dst)
	if err := b.need(user, dstColl, acl.Write, "move"); err != nil {
		return err
	}
	var err error
	if b.Cat.CollExists(src) {
		err = b.Cat.MoveColl(src, dst)
	} else {
		err = b.Cat.MoveObject(src, dstColl, types.Base(dst))
	}
	b.audit(user, "move", src, err == nil, "to "+dst)
	return err
}

// PhysicalMove relocates one replica to another resource without
// changing the logical name.
func (b *Broker) PhysicalMove(user, path string, number types.ReplicaNumber, toResource string) error {
	if _, err := b.checkWrite(user, path, "physmove"); err != nil {
		return err
	}
	err := b.rm.PhysicalMove(path, number, toResource)
	b.audit(user, "physmove", path, err == nil, toResource)
	return err
}

// Link registers a soft link to an existing object in another
// collection. Chains collapse: linking to a link links to its target.
func (b *Broker) Link(user, target, linkPath string) error {
	o, err := b.Cat.GetObject(target)
	if err != nil {
		return types.E("link", target, types.ErrNotFound)
	}
	if err := b.need(user, target, acl.Read, "link"); err != nil {
		return err
	}
	if o.Kind == types.KindLink {
		target = o.LinkTarget
	}
	coll := types.Parent(linkPath)
	if err := b.need(user, coll, acl.Write, "link"); err != nil {
		return err
	}
	_, err = b.Cat.RegisterObject(&types.DataObject{
		Name: types.Base(linkPath), Collection: coll, Owner: user,
		Kind: types.KindLink, LinkTarget: types.CleanPath(target),
	})
	b.audit(user, "link", linkPath, err == nil, "-> "+target)
	return err
}

// LinkColl links a collection as a sub-collection of another.
func (b *Broker) LinkColl(user, target, linkPath string) error {
	if err := b.need(user, target, acl.Read, "linkcoll"); err != nil {
		return err
	}
	if err := b.need(user, types.Parent(linkPath), acl.Write, "linkcoll"); err != nil {
		return err
	}
	err := b.Cat.LinkColl(target, linkPath, user)
	b.audit(user, "linkcoll", linkPath, err == nil, "-> "+target)
	return err
}

// Delete removes an object. Registered directory, SQL, URL and method
// objects are unlinked without touching the physical data; link objects
// only unlink; files lose every replica's bytes and, with the last
// replica, all metadata and annotations (paper §5).
func (b *Broker) Delete(user, path string) error {
	start := time.Now()
	err := b.deleteObj(user, path)
	b.ops.delete_.Done(start, err)
	return err
}

func (b *Broker) deleteObj(user, path string) error {
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return types.E("delete", path, types.ErrNotFound)
	}
	if err := b.need(user, path, acl.Own, "delete"); err != nil {
		return err
	}
	if writeBlocked(&o, user, b.now()) {
		return types.E("delete", path, types.ErrLocked)
	}
	switch o.Kind {
	case types.KindFile, types.KindRegisteredFile:
		// Physical bytes go with the object. Registered files are also
		// deleted physically (paper §5, kind 1: "including deletion on
		// registered files"); container members leave their bytes
		// orphaned in the segment until the container is removed.
		if o.Container == "" {
			for _, rep := range o.Replicas {
				if d, err := b.Driver(rep.Resource); err == nil {
					d.Remove(rep.PhysicalPath)
				}
			}
		}
	}
	err = b.Cat.DeleteObject(path)
	b.audit(user, "delete", path, err == nil, o.Kind.String())
	return err
}

// DeleteReplica removes one replica; deleting the last replica deletes
// the object with all its metadata ("when the last replica is deleted
// all the metadata and annotations are also deleted").
func (b *Broker) DeleteReplica(user, path string, number types.ReplicaNumber) error {
	o, err := b.Cat.GetObject(path)
	if err != nil {
		return err
	}
	if err := b.need(user, path, acl.Own, "rmreplica"); err != nil {
		return err
	}
	if len(o.Replicas) <= 1 {
		return b.Delete(user, path)
	}
	err = b.rm.DeleteReplica(path, number)
	b.audit(user, "rmreplica", path, err == nil, fmt.Sprintf("replica %d", number))
	return err
}
