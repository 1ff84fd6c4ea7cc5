package core

import (
	"bytes"
	"fmt"
	"testing"

	"gosrb/internal/mcat"
	"gosrb/internal/storage/archivefs"
	"gosrb/internal/storage/dbfs"
	"gosrb/internal/storage/posixfs"
	"gosrb/internal/types"
)

// TestMixedDriverGrid runs the broker over every driver kind at once —
// the paper's heterogeneity claim ("access files on a super computer
// ... or a desktop ... archival storage systems ... file systems ...
// and databases") — and moves data among them.
func TestMixedDriverGrid(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	b := New(cat, "srb1")
	pfs, err := posixfs.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	arch := archivefs.New(archivefs.Config{}) // zero latency for the test
	if err := b.AddPhysicalResource("admin", "unixfs", types.ClassFileSystem, "posixfs", pfs); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPhysicalResource("admin", "hpss", types.ClassArchive, "archivefs", arch); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPhysicalResource("admin", "oracle", types.ClassDatabase, "dbfs", dbfs.New()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLogicalResource("admin", "everywhere", []string{"unixfs", "hpss", "oracle"}); err != nil {
		t.Fatal(err)
	}
	cat.MkColl("/d", "admin")

	payload := []byte("bytes that traverse every storage class")
	// Ingest onto the logical resource: three replicas, one per class.
	o, err := b.Ingest("admin", IngestOpts{Path: "/d/tri", Data: bytes.NewReader(payload), Resource: "everywhere"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Replicas) != 3 {
		t.Fatalf("replicas = %+v", o.Replicas)
	}
	// Every replica independently serves the bytes.
	for _, rep := range o.Replicas {
		data, served, err := b.Replicas().ReadAll("/d/tri", rep.Resource)
		if err != nil || !bytes.Equal(data, payload) {
			t.Errorf("replica on %s: %q, %v", rep.Resource, data, err)
		}
		if served.Resource != rep.Resource {
			t.Errorf("preferred read served from %s, want %s", served.Resource, rep.Resource)
		}
	}
	// Take two classes down; the third still answers.
	cat.SetResourceOnline("unixfs", false)
	cat.SetResourceOnline("hpss", false)
	data, err := b.Get("admin", "/d/tri")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("db-only read = %q, %v", data, err)
	}
	cat.SetResourceOnline("unixfs", true)
	cat.SetResourceOnline("hpss", true)

	// Physical move across classes: database -> file system.
	var dbRep types.ReplicaNumber = -1
	for _, rep := range o.Replicas {
		if rep.Resource == "oracle" {
			dbRep = rep.Number
		}
	}
	if err := b.PhysicalMove("admin", "/d/tri", dbRep, "unixfs"); err != nil {
		t.Fatal(err)
	}
	o2, _ := cat.GetObject("/d/tri")
	for _, rep := range o2.Replicas {
		if rep.Resource == "oracle" {
			t.Error("replica should have left the database")
		}
	}
	// Containers work on the archive class.
	if _, err := b.CreateContainer("admin", "/d/cc", "hpss"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := b.Ingest("admin", IngestOpts{
			Path: fmt.Sprintf("/d/m%d", i), Data: bytes.NewReader([]byte(fmt.Sprintf("member %d", i))),
			Container: "/d/cc",
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.Get("admin", "/d/m3")
	if err != nil || string(got) != "member 3" {
		t.Errorf("container member on archive = %q, %v", got, err)
	}
	// Dirty-sync across classes: write while the archive is down.
	cat.SetResourceOnline("hpss", false)
	if err := b.Reingest("admin", "/d/tri", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	cat.SetResourceOnline("hpss", true)
	n, err := b.Replicas().SyncDirty("/d/tri")
	if err != nil || n != 1 {
		t.Fatalf("SyncDirty = %d, %v", n, err)
	}
	data, _, err = b.Replicas().ReadAll("/d/tri", "hpss")
	if err != nil || string(data) != "updated" {
		t.Errorf("archive replica after sync = %q, %v", data, err)
	}
}
