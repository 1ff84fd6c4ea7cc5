package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// clockBroker returns a broker with a controllable clock.
func clockBroker(t *testing.T) (*Broker, *time.Time) {
	b := newBroker(t)
	now := time.Unix(1_000_000, 0)
	b.SetClock(func() time.Time { return now })
	return b, &now
}

func TestSharedLockBlocksOtherWriters(t *testing.T) {
	b, _ := clockBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: bytes.NewReader([]byte("v1")), Resource: "disk1"})
	b.Chmod("alice", "/home/f", "bob", acl.Write)
	if err := b.Lock("alice", "/home/f", types.LockShared, time.Hour); err != nil {
		t.Fatal(err)
	}
	// Bob may read but not write.
	if _, err := b.Get("bob", "/home/f"); err != nil {
		t.Errorf("shared lock should allow reads: %v", err)
	}
	if err := b.Reingest("bob", "/home/f", []byte("v2")); !errors.Is(err, types.ErrLocked) {
		t.Errorf("locked write: %v", err)
	}
	// The holder still writes.
	if err := b.Reingest("alice", "/home/f", []byte("v2")); err != nil {
		t.Errorf("holder write: %v", err)
	}
}

func TestExclusiveLockBlocksReads(t *testing.T) {
	b, _ := clockBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: bytes.NewReader([]byte("x")), Resource: "disk1"})
	b.Chmod("alice", "/home/f", "bob", acl.Write)
	b.Lock("alice", "/home/f", types.LockExclusive, time.Hour)
	if _, err := b.Get("bob", "/home/f"); !errors.Is(err, types.ErrLocked) {
		t.Errorf("exclusive read: %v", err)
	}
	if _, err := b.Get("alice", "/home/f"); err != nil {
		t.Errorf("holder read: %v", err)
	}
	// A second user cannot stack a lock.
	if err := b.Lock("bob", "/home/f", types.LockShared, time.Hour); !errors.Is(err, types.ErrLocked) {
		t.Errorf("second lock: %v", err)
	}
}

func TestLockExpiry(t *testing.T) {
	b, now := clockBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: bytes.NewReader([]byte("x")), Resource: "disk1"})
	b.Chmod("alice", "/home/f", "bob", acl.Write)
	b.Lock("alice", "/home/f", types.LockExclusive, time.Minute)
	if _, err := b.Get("bob", "/home/f"); !errors.Is(err, types.ErrLocked) {
		t.Fatalf("fresh lock: %v", err)
	}
	// "A lock placed by a user has an expiry date at which time it gets
	// unlocked."
	*now = now.Add(2 * time.Minute)
	if _, err := b.Get("bob", "/home/f"); err != nil {
		t.Errorf("expired lock should unlock: %v", err)
	}
	if err := b.Reingest("bob", "/home/f", []byte("y")); err != nil {
		t.Errorf("write after expiry: %v", err)
	}
}

func TestUnlock(t *testing.T) {
	b, _ := clockBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: bytes.NewReader([]byte("x")), Resource: "disk1"})
	b.Lock("alice", "/home/f", types.LockShared, time.Hour)
	if err := b.Unlock("bob", "/home/f"); !errors.Is(err, types.ErrPermission) {
		t.Errorf("foreign unlock: %v", err)
	}
	if err := b.Unlock("alice", "/home/f"); err != nil {
		t.Fatal(err)
	}
	o, _ := b.Cat.GetObject("/home/f")
	if o.Lock.Kind != types.LockNone {
		t.Error("lock should be cleared")
	}
	// Admin can break locks.
	b.Lock("alice", "/home/f", types.LockShared, time.Hour)
	if err := b.Unlock("admin", "/home/f"); err != nil {
		t.Errorf("admin unlock: %v", err)
	}
}

func TestCheckoutCheckinVersions(t *testing.T) {
	b, _ := clockBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/doc", Data: bytes.NewReader([]byte("draft 1")), Resource: "disk1"})
	b.Chmod("alice", "/home/doc", "bob", acl.Write)
	if err := b.Checkout("alice", "/home/doc"); err != nil {
		t.Fatal(err)
	}
	// "A checkout by a user disallows any changes to be made" by others.
	if err := b.Reingest("bob", "/home/doc", []byte("intrusion")); !errors.Is(err, types.ErrLocked) {
		t.Errorf("write during checkout: %v", err)
	}
	if err := b.Checkout("bob", "/home/doc"); !errors.Is(err, types.ErrLocked) {
		t.Errorf("double checkout: %v", err)
	}
	// Checkin preserves the old version with a distinct number.
	if err := b.Checkin("alice", "/home/doc", []byte("draft 2"), "second draft"); err != nil {
		t.Fatal(err)
	}
	data, _ := b.Get("alice", "/home/doc")
	if string(data) != "draft 2" {
		t.Errorf("current = %q", data)
	}
	vers, err := b.Versions("alice", "/home/doc")
	if err != nil || len(vers) != 1 || vers[0].Number != 1 {
		t.Fatalf("versions = %+v, %v", vers, err)
	}
	old, err := b.GetVersion("alice", "/home/doc", 1)
	if err != nil || string(old) != "draft 1" {
		t.Errorf("version 1 = %q, %v", old, err)
	}
	// Another cycle makes version 2.
	b.Checkout("alice", "/home/doc")
	b.Checkin("alice", "/home/doc", []byte("draft 3"), "")
	vers, _ = b.Versions("alice", "/home/doc")
	if len(vers) != 2 || vers[1].Number != 2 {
		t.Errorf("versions = %+v", vers)
	}
	v2, _ := b.GetVersion("alice", "/home/doc", 2)
	if string(v2) != "draft 2" {
		t.Errorf("version 2 = %q", v2)
	}
	if _, err := b.GetVersion("alice", "/home/doc", 9); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing version: %v", err)
	}
	// Checkin without checkout fails.
	if err := b.Checkin("bob", "/home/doc", []byte("x"), ""); !errors.Is(err, types.ErrLocked) {
		t.Errorf("checkin without checkout: %v", err)
	}
}

func TestPinSurvivesPurge(t *testing.T) {
	b, _ := clockBroker(t)
	// cache1 is a cache-class resource.
	if err := b.AddPhysicalResource("admin", "cache1", types.ClassCache, "memfs", newCacheStore(t)); err != nil {
		t.Fatal(err)
	}
	// Three objects on disk1, replicated to cache1.
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/home/f%d", i)
		b.Ingest("alice", IngestOpts{Path: p, Data: bytes.NewReader(make([]byte, 1000)), Resource: "disk1"})
		if _, err := b.Replicate("alice", p, "cache1"); err != nil {
			t.Fatal(err)
		}
	}
	// Pin one cached replica.
	if err := b.Pin("alice", "/home/f1", "cache1", time.Hour); err != nil {
		t.Fatal(err)
	}
	// Purge to zero: everything unpinned goes; the pinned replica stays.
	evicted, err := b.PurgeCache("admin", "cache1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 {
		t.Errorf("evicted = %d, want 2", evicted)
	}
	o, _ := b.Cat.GetObject("/home/f1")
	onCache := false
	for _, r := range o.Replicas {
		if r.Resource == "cache1" {
			onCache = true
		}
	}
	if !onCache {
		t.Error("pinned replica must survive the purge")
	}
	// Unpin, purge again: now it goes.
	if err := b.Unpin("alice", "/home/f1", "cache1"); err != nil {
		t.Fatal(err)
	}
	evicted, _ = b.PurgeCache("admin", "cache1", 0)
	if evicted != 1 {
		t.Errorf("second purge evicted = %d", evicted)
	}
	// Non-admin cannot purge.
	if _, err := b.PurgeCache("alice", "cache1", 0); !errors.Is(err, types.ErrPermission) {
		t.Errorf("non-admin purge: %v", err)
	}
}

func TestPurgeNeverDropsOnlyCopy(t *testing.T) {
	b, _ := clockBroker(t)
	b.AddPhysicalResource("admin", "cache1", types.ClassCache, "memfs", newCacheStore(t))
	// Object living only on the cache.
	b.Ingest("alice", IngestOpts{Path: "/home/solo", Data: bytes.NewReader(make([]byte, 100)), Resource: "cache1"})
	evicted, err := b.PurgeCache("admin", "cache1", 0)
	if err != nil || evicted != 0 {
		t.Errorf("purge = %d, %v", evicted, err)
	}
	if _, err := b.Get("alice", "/home/solo"); err != nil {
		t.Errorf("sole copy must survive: %v", err)
	}
}

func TestPinGuards(t *testing.T) {
	b, _ := clockBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: bytes.NewReader([]byte("x")), Resource: "disk1"})
	// Pinning a resource the object has no replica on fails.
	if err := b.Pin("alice", "/home/f", "disk2", time.Hour); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("pin wrong resource: %v", err)
	}
}

// newCacheStore returns a memfs store used as a cache resource.
func newCacheStore(t *testing.T) *memfs.FS {
	t.Helper()
	return memfs.New()
}
