package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"gosrb/internal/storage/memfs"
)

// TestBrokerOpMetrics checks that broker operations land in the right
// metric families: counts, error counts, latency observations and the
// per-driver byte totals maintained by the storage decorator.
func TestBrokerOpMetrics(t *testing.T) {
	b := newBroker(t)
	payload := []byte("metered bytes")
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m.dat", Data: bytes.NewReader(payload), Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("alice", "/home/m.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("alice", "/home/nope.dat"); err == nil {
		t.Fatal("expected notfound")
	}
	s := b.Metrics().Snapshot()
	ing := s.Ops["broker.ingest"]
	if ing.Count != 1 || ing.Errors != 0 {
		t.Errorf("ingest = %+v", ing)
	}
	get := s.Ops["broker.get"]
	if get.Count != 2 || get.Errors != 1 {
		t.Errorf("get = %+v", get)
	}
	if get.TotalMicros < 0 || get.P50Micros <= 0 {
		t.Errorf("get latency not observed: %+v", get)
	}
	if got := s.Counters["storage.disk1.bytes_in"]; got != int64(len(payload)) {
		t.Errorf("bytes_in = %d, want %d", got, len(payload))
	}
	if got := s.Counters["storage.disk1.bytes_out"]; got != int64(len(payload)) {
		t.Errorf("bytes_out = %d, want %d", got, len(payload))
	}
	if s.Counters["storage.disk1.writes"] == 0 || s.Counters["storage.disk1.reads"] == 0 {
		t.Errorf("read/write op counters missing: %v", s.Counters)
	}
}

// TestReplicaFanoutMetrics writes through a logical resource and checks
// the fan-out success counter; an offline member must count as failure.
func TestReplicaFanoutMetrics(t *testing.T) {
	b := newBroker(t)
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/f.dat", Data: bytes.NewReader([]byte("one")), Resource: "mirror"}); err != nil {
		t.Fatal(err)
	}
	snap := b.Metrics().Snapshot()
	okBefore := snap.Counters["replica.fanout.ok"]
	if okBefore < 2 {
		t.Errorf("fanout.ok = %d after mirror ingest, want >= 2", okBefore)
	}
	// Rewrite with one member offline: one ok, one fail, and the read
	// that follows fails over past the dirty replica.
	b.Cat.SetResourceOnline("disk1", false)
	if err := b.Reingest("alice", "/home/f.dat", []byte("two")); err != nil {
		t.Fatal(err)
	}
	snap = b.Metrics().Snapshot()
	if snap.Counters["replica.fanout.fail"] == 0 {
		t.Errorf("fanout.fail = 0 with an offline member")
	}
	if snap.Counters["replica.fanout.ok"] <= okBefore {
		t.Errorf("fanout.ok did not grow: %d -> %d", okBefore, snap.Counters["replica.fanout.ok"])
	}
}

// TestSetMetricsNilDisables is the baseline path the overhead benchmark
// relies on: a nil registry must make every recording a no-op without
// breaking any operation.
func TestSetMetricsNilDisables(t *testing.T) {
	cat := newBroker(t).Cat
	b := New(cat, "srb1")
	b.SetMetrics(nil)
	// Mount after SetMetrics(nil) so drivers skip byte counting too.
	if err := b.Remount("disk1", memfs.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/n.dat", Data: bytes.NewReader([]byte("x")), Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("alice", "/home/n.dat"); err != nil {
		t.Fatal(err)
	}
	if b.Metrics() != nil {
		t.Error("metrics registry should be nil")
	}
}

// TestMetricsConcurrentBrokerOps hammers the registry from concurrent
// broker operations; under -race it verifies the whole recording path
// (op shims, histogram buckets, storage byte counters) is data-race
// free, and the counts must still add up exactly.
func TestMetricsConcurrentBrokerOps(t *testing.T) {
	b := newBroker(t)
	const workers = 8
	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/home/c%d.dat", w)
			if _, err := b.Ingest("alice", IngestOpts{Path: path, Data: bytes.NewReader([]byte("z")), Resource: "disk1"}); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				if _, err := b.Get("alice", path); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					b.Metrics().Snapshot() // concurrent readers
				}
			}
		}(w)
	}
	wg.Wait()
	s := b.Metrics().Snapshot()
	if got := s.Ops["broker.get"].Count; got != workers*iters {
		t.Errorf("broker.get count = %d, want %d", got, workers*iters)
	}
	if got := s.Ops["broker.ingest"].Count; got != workers {
		t.Errorf("broker.ingest count = %d, want %d", got, workers)
	}
}
