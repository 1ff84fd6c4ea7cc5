package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"gosrb/internal/faultnet"
	"gosrb/internal/mcat"
	"gosrb/internal/replica"
	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// slicedReader hands out at most n bytes per Read and hides
// bytes.Reader's WriteTo, so an ingest copies it in many writes, as it
// copies a live wire stream. After fail bytes (when positive) it fails.
type slicedReader struct {
	r    *bytes.Reader
	n    int
	fail int64
}

func (s *slicedReader) Read(p []byte) (int, error) {
	if s.fail > 0 && s.r.Size()-int64(s.r.Len()) >= s.fail {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > s.n {
		p = p[:s.n]
	}
	return s.r.Read(p)
}

// mirrorBroker builds a broker whose logical resource "mirror" spans
// two memfs members; wrap, when set, decorates disk2's driver.
func mirrorBroker(t *testing.T, wrap func(storage.Driver) storage.Driver) (*Broker, *memfs.FS, *memfs.FS) {
	t.Helper()
	b := New(mcat.New("admin", "sdsc"), "srb1")
	m1, m2 := memfs.New(), memfs.New()
	var d2 storage.Driver = m2
	if wrap != nil {
		d2 = wrap(m2)
	}
	if err := b.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs", m1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPhysicalResource("admin", "disk2", types.ClassFileSystem, "memfs", d2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLogicalResource("admin", "mirror", []string{"disk1", "disk2"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Cat.MkColl("/d", "admin"); err != nil {
		t.Fatal(err)
	}
	return b, m1, m2
}

func payload(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*13 + i>>10)
	}
	return data
}

// TestMirrorIngestStreams: one pass over a multi-write stream lands
// clean replicas with identical contents and checksums on both members.
func TestMirrorIngestStreams(t *testing.T) {
	b, m1, m2 := mirrorBroker(t, nil)
	data := payload(1<<20 + 17)
	o, err := b.Ingest("admin", IngestOpts{Path: "/d/m", Resource: "mirror", Data: &slicedReader{r: bytes.NewReader(data), n: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	sum := replica.Checksum(data)
	if o.Size != int64(len(data)) || o.Checksum != sum {
		t.Errorf("object size %d checksum %s, want %d %s", o.Size, o.Checksum, len(data), sum)
	}
	for i, fs := range []*memfs.FS{m1, m2} {
		r := o.Replicas[i]
		if r.Status != types.ReplicaClean || r.Checksum != sum || r.Size != int64(len(data)) {
			t.Errorf("replica %d = %+v", i, r)
		}
		got, err := storage.ReadAll(fs, r.PhysicalPath)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("replica %d holds %d bytes, %v", i, len(got), err)
		}
	}
}

// TestMirrorIngestMemberFailsMidStream: a member whose writer fails
// partway is dropped — its replica stays dirty and leaves no file —
// while the other member lands a clean copy.
func TestMirrorIngestMemberFailsMidStream(t *testing.T) {
	in := faultnet.New(1)
	b, m1, m2 := mirrorBroker(t, func(d storage.Driver) storage.Driver {
		return in.WrapDriver("resource.disk2", d)
	})
	in.Target("resource.disk2").PartialWriteAfter(200 << 10)
	data := payload(1 << 20)
	o, err := b.Ingest("admin", IngestOpts{Path: "/d/m", Resource: "mirror", Data: &slicedReader{r: bytes.NewReader(data), n: 64 << 10}})
	if err != nil {
		t.Fatalf("ingest with one healthy member: %v", err)
	}
	clean, dirty := o.Replicas[0], o.Replicas[1]
	if clean.Status != types.ReplicaClean || clean.Checksum != replica.Checksum(data) {
		t.Errorf("healthy member replica = %+v", clean)
	}
	if got, err := storage.ReadAll(m1, clean.PhysicalPath); err != nil || !bytes.Equal(got, data) {
		t.Errorf("healthy member holds %d bytes, %v", len(got), err)
	}
	if dirty.Status != types.ReplicaDirty {
		t.Errorf("failed member replica = %+v, want dirty", dirty)
	}
	if _, err := m2.Stat(dirty.PhysicalPath); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("failed member left a file: %v", err)
	}
}

// TestIngestStreamEndsEarly: a source that fails partway leaves no
// replica file on any member and no catalog row.
func TestIngestStreamEndsEarly(t *testing.T) {
	b, m1, m2 := mirrorBroker(t, nil)
	data := payload(1 << 20)
	_, err := b.Ingest("admin", IngestOpts{Path: "/d/m", Resource: "mirror", Data: &slicedReader{r: bytes.NewReader(data), n: 64 << 10, fail: 300 << 10}})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ingest of a broken stream = %v", err)
	}
	if _, err := b.Cat.GetObject("/d/m"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("catalog row after a broken stream: %v", err)
	}
	for i, fs := range []*memfs.FS{m1, m2} {
		if u := fs.Usage(); u.Files != 0 {
			t.Errorf("member %d holds %d files after a broken stream", i+1, u.Files)
		}
	}
}
