package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gosrb/internal/types"
)

func TestContainerLifecycle(t *testing.T) {
	b := newBroker(t)
	cont, err := b.CreateContainer("alice", "/home/cont1", "disk1")
	if err != nil {
		t.Fatal(err)
	}
	if cont.DataType != ContainerDataType || len(cont.Replicas) != 1 {
		t.Fatalf("container = %+v", cont)
	}
	// Ingest members; container spec overrides resource spec.
	var want []string
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("member-%d-data", i))
		want = append(want, string(data))
		_, err := b.Ingest("alice", IngestOpts{
			Path: fmt.Sprintf("/home/small%02d", i), Data: bytes.NewReader(data),
			Resource:  "disk2", // ignored: container wins
			Container: "/home/cont1",
		})
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	// Members read back through the container.
	for i := 0; i < 20; i++ {
		got, err := b.Get("alice", fmt.Sprintf("/home/small%02d", i))
		if err != nil || string(got) != want[i] {
			t.Errorf("member %d = %q, %v", i, got, err)
		}
	}
	o, _ := b.Cat.GetObject("/home/small00")
	if o.Container != "/home/cont1" || len(o.Replicas) != 0 {
		t.Errorf("member object = %+v", o)
	}
	// Members are indexed by container.
	if got := len(b.Cat.ObjectsInContainer("/home/cont1")); got != 20 {
		t.Errorf("members = %d", got)
	}
	// A non-empty container refuses deletion.
	if err := b.DeleteContainer("alice", "/home/cont1"); !errors.Is(err, types.ErrNotEmpty) {
		t.Errorf("non-empty delete: %v", err)
	}
	// Delete members, then the container (bytes removed).
	for i := 0; i < 20; i++ {
		if err := b.Delete("alice", fmt.Sprintf("/home/small%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeleteContainer("alice", "/home/cont1"); err != nil {
		t.Fatal(err)
	}
	d, _ := b.Driver("disk1")
	if _, err := d.Stat(cont.Replicas[0].PhysicalPath); !errors.Is(err, types.ErrNotFound) {
		t.Error("segment should be removed")
	}
}

func TestContainerOnLogicalResource(t *testing.T) {
	b := newBroker(t)
	cont, err := b.CreateContainer("alice", "/home/cc", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	if len(cont.Replicas) != 2 {
		t.Fatalf("segment replicas = %+v", cont.Replicas)
	}
	b.Ingest("alice", IngestOpts{Path: "/home/m1", Data: bytes.NewReader([]byte("aligned")), Container: "/home/cc"})
	// Offsets are aligned: the member reads from either segment.
	b.Cat.SetResourceOnline("disk1", false)
	data, err := b.Get("alice", "/home/m1")
	if err != nil || string(data) != "aligned" {
		t.Errorf("read via disk2 segment = %q, %v", data, err)
	}
	b.Cat.SetResourceOnline("disk1", true)
	b.Cat.SetResourceOnline("disk2", false)
	data, err = b.Get("alice", "/home/m1")
	if err != nil || string(data) != "aligned" {
		t.Errorf("read via disk1 segment = %q, %v", data, err)
	}
}

func TestContainerDirtyAndSync(t *testing.T) {
	b := newBroker(t)
	b.CreateContainer("alice", "/home/cc", "mirror")
	// disk2 goes down; appends land only on disk1 and mark disk2 dirty.
	b.Cat.SetResourceOnline("disk2", false)
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m1", Data: bytes.NewReader([]byte("while-down")), Container: "/home/cc"}); err != nil {
		t.Fatal(err)
	}
	cont, _ := b.Cat.GetObject("/home/cc")
	var st1, st2 types.ReplicaStatus
	for _, r := range cont.Replicas {
		if r.Resource == "disk1" {
			st1 = r.Status
		} else {
			st2 = r.Status
		}
	}
	if st1 != types.ReplicaClean || st2 != types.ReplicaDirty {
		t.Fatalf("statuses = %v, %v", st1, st2)
	}
	// Back online: sync repairs the dirty segment.
	b.Cat.SetResourceOnline("disk2", true)
	n, err := b.SyncContainer("alice", "/home/cc")
	if err != nil || n != 1 {
		t.Fatalf("SyncContainer = %d, %v", n, err)
	}
	// Reads work from the repaired copy alone.
	b.Cat.SetResourceOnline("disk1", false)
	data, err := b.Get("alice", "/home/m1")
	if err != nil || string(data) != "while-down" {
		t.Errorf("read from synced = %q, %v", data, err)
	}
}

func TestContainerMemberReingest(t *testing.T) {
	b := newBroker(t)
	b.CreateContainer("alice", "/home/cc", "disk1")
	b.Ingest("alice", IngestOpts{Path: "/home/m", Data: bytes.NewReader([]byte("old")), Container: "/home/cc"})
	if err := b.Reingest("alice", "/home/m", []byte("new contents")); err != nil {
		t.Fatal(err)
	}
	data, err := b.Get("alice", "/home/m")
	if err != nil || string(data) != "new contents" {
		t.Errorf("after member reingest = %q, %v", data, err)
	}
}

func TestContainerMemberNotReplicable(t *testing.T) {
	b := newBroker(t)
	b.CreateContainer("alice", "/home/cc", "disk1")
	b.Ingest("alice", IngestOpts{Path: "/home/m", Data: bytes.NewReader([]byte("x")), Container: "/home/cc"})
	if _, err := b.Replicate("alice", "/home/m", "disk2"); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("replicating container member: %v", err)
	}
}

func TestIngestIntoNonContainer(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/plain", Data: bytes.NewReader([]byte("x")), Resource: "disk1"})
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m", Data: nil, Container: "/home/plain"}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("non-container target: %v", err)
	}
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m", Data: nil, Container: "/home/ghost"}); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing container: %v", err)
	}
}

func TestConcurrentContainerAppends(t *testing.T) {
	b := newBroker(t)
	b.CreateContainer("alice", "/home/cc", "mirror")
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 10; i++ {
				_, err = b.Ingest("alice", IngestOpts{
					Path:      fmt.Sprintf("/home/c-%d-%d", w, i),
					Data:      bytes.NewReader([]byte(fmt.Sprintf("payload %d %d", w, i))),
					Container: "/home/cc",
				})
				if err != nil {
					break
				}
			}
			done <- err
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Every member reads back correctly from both segments.
	for w := 0; w < 8; w++ {
		for i := 0; i < 10; i++ {
			p := fmt.Sprintf("/home/c-%d-%d", w, i)
			got, err := b.Get("alice", p)
			if err != nil || string(got) != fmt.Sprintf("payload %d %d", w, i) {
				t.Fatalf("%s = %q, %v", p, got, err)
			}
		}
	}
}
