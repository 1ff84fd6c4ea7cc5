package main

import (
	"bytes"
	"io"
	"sort"
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/workload"
)

// seedSmall ingests a small SkySurvey population through cl and returns
// its specs.
func seedSmall(t *testing.T, cl *client.Client) []workload.Spec {
	t.Helper()
	const prefix = "/fidelity"
	specs := workload.NewGen(5).SkySurvey(prefix, 400, 16)
	if err := cl.Mkdir(prefix); err != nil {
		t.Fatal(err)
	}
	made := map[string]bool{}
	var items []client.BulkPut
	for i, s := range specs {
		if !made[s.Collection] {
			if err := cl.Mkdir(s.Collection); err != nil {
				t.Fatal(err)
			}
			made[s.Collection] = true
		}
		data := make([]byte, 512)
		fill(data, uint64(i))
		items = append(items, client.BulkPut{Path: s.Path(), Data: data,
			Opts: client.PutOpts{Resource: "mirror", Meta: s.Meta}})
	}
	st, err := cl.BulkPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st {
		if err := st[i].Err(); err != nil {
			t.Fatal(err)
		}
	}
	return specs
}

func startNode(t *testing.T, tr *tracer) (*node, *client.Client) {
	t.Helper()
	n, err := assemble(t.TempDir(), tr, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.close)
	cl, err := client.Dial(n.addr, adminUser, adminPass)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return n, cl
}

func hitPaths(hits []mcat.Hit) []string {
	var out []string
	for _, h := range hits {
		out = append(out, h.Path)
	}
	sort.Strings(out)
	return out
}

// TestWrapperFidelity checks that the layer wrappers leave the server's
// behaviour alone: a root-scoped query is still a 4-shard
// scatter-gather, recorded as the dispatch/shard.fanout phase, and
// returns the same hits as the bare assembly; reads return the bytes
// written.
func TestWrapperFidelity(t *testing.T) {
	q := mcat.Query{Scope: "/", Conds: []mcat.Condition{
		{Attr: "band", Op: "=", Value: "J"},
		{Attr: "mag", Op: "<", Value: "9"},
	}}
	_, bare := startNode(t, nil)
	seedSmall(t, bare)
	want, partial, err := bare.QueryPartial(q)
	if err != nil || len(partial) > 0 {
		t.Fatalf("bare query: %v, partial %v", err, partial)
	}
	if len(want) == 0 {
		t.Fatal("bare query found nothing; the test population is too small")
	}

	tr := newTracer()
	n, wrapped := startNode(t, tr)
	if n.router.N() != mcatShards {
		t.Fatalf("assembled %d shards, want %d", n.router.N(), mcatShards)
	}
	specs := seedSmall(t, wrapped)
	tr.on.Store(true)
	got, partial, err := wrapped.QueryPartial(q)
	if err != nil || len(partial) > 0 {
		t.Fatalf("wrapped query: %v, partial %v", err, partial)
	}
	if a, b := hitPaths(want), hitPaths(got); len(a) != len(b) || !equalStrings(a, b) {
		t.Fatalf("wrapped query returned %d hits, bare %d", len(b), len(a))
	}
	data, err := wrapped.Get(specs[3].Path())
	if err != nil {
		t.Fatal(err)
	}
	exp := make([]byte, 512)
	fill(exp, 3)
	if !bytes.Equal(data, exp) {
		t.Fatal("get through the storage wrapper returned other bytes")
	}
	tr.on.Store(false)

	// The server records a request's phases after writing its reply, so
	// wait for the record rather than reading it once.
	fanout := obs.PhasePrefix + "server.query." + obs.PhaseShardFanout
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := wrapped.OpStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Snapshot.Ops[fanout].Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("root query through the catalog wrapper recorded no dispatch/shard.fanout phase")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c := n.cat.counts()
	if c.QueryCalls == 0 || c.QueryHits != int64(len(got)) || c.BusyNs == 0 {
		t.Fatalf("catalog wrapper saw %+v, want the traced query and its %d hits", c, len(got))
	}
	if s := n.vaults.counts(); s.Opens == 0 || s.BytesRead < 512 || s.Creates < int64(2*len(specs)) {
		t.Fatalf("storage wrapper saw %+v", s)
	}
	names := map[string]bool{}
	tr.spans.mu.Lock()
	defer tr.spans.mu.Unlock()
	for _, sp := range tr.spans.spans {
		names[sp.Name] = true
		if sp.Parent != tr.run || sp.End < sp.Start {
			t.Fatalf("bad span %+v", sp)
		}
	}
	if !names["mcat.QueryPartial"] || !names["storage.Open"] {
		t.Fatalf("traced calls left spans %v", names)
	}
}

func equalStrings(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
