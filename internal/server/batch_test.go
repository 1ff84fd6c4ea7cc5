// Batch-op semantics over the wire: per-item failure isolation, order
// preservation, and the manifest/stream consistency check that keeps a
// bulk ingest from tearing rows.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"gosrb/internal/client"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// TestBulkPutPartialFailure: items in one bulk ingest succeed and fail
// independently — a bad item neither blocks its batch-mates nor leaves
// a torn catalog row of its own.
func TestBulkPutPartialFailure(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")

	res, err := cl.BulkPut([]client.BulkPut{
		{Path: "/home/a.txt", Data: []byte("alpha"), Opts: client.PutOpts{Resource: "disk1"}},
		{Path: "/home/b.txt", Data: []byte("beta"), Opts: client.PutOpts{Resource: "nosuchdisk"}},
		{Path: "/home/c.txt", Data: []byte("gamma"), Opts: client.PutOpts{Resource: "disk1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d item statuses, want 3", len(res))
	}
	if !res[0].OK || !res[2].OK {
		t.Fatalf("healthy items failed alongside a bad one: %+v", res)
	}
	if res[1].OK {
		t.Fatal("ingest to a nonexistent resource reported success")
	}
	if res[1].ErrKind == "" || res[1].ErrMsg == "" {
		t.Fatalf("failed item carries no named error: %+v", res[1])
	}
	// Batch-mates landed whole; the failed item left nothing behind.
	for p, want := range map[string]string{"/home/a.txt": "alpha", "/home/c.txt": "gamma"} {
		data, err := cl.Get(p)
		if err != nil || string(data) != want {
			t.Fatalf("get %s = %q, %v; want %q", p, data, err, want)
		}
	}
	if _, err := cl.Stat("/home/b.txt"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("failed bulk item left a catalog row (stat err = %v)", err)
	}
}

// TestBulkPutManifestMismatch: a manifest whose declared sizes do not
// sum to the stream length must fail the whole batch before any item
// is ingested — a misaligned stream would write wrong bytes to every
// item after the misalignment.
func TestBulkPutManifestMismatch(t *testing.T) {
	z := newZone(t, Proxy)
	c := rawConn(t, z.addr1, "alice", "alicepw")

	args, _ := json.Marshal(wire.BulkPutArgs{Items: []wire.BulkPutItem{
		{Path: "/home/short.txt", Resource: "disk1", Size: 10}, // stream carries 4
	}})
	if err := c.WriteJSON(wire.MsgRequest, wire.Request{ID: 1, Op: wire.OpBulkPut, Args: args}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendData(bytes.NewReader([]byte("oops"))); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.ReadJSON(wire.MsgResponse, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("mismatched manifest accepted")
	}
	if err := resp.Err(); !errors.Is(err, types.ErrInvalid) {
		t.Fatalf("mismatch error = %v, want invalid", err)
	}
	// Nothing was ingested.
	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.Stat("/home/short.txt"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("rejected batch still ingested an item (stat err = %v)", err)
	}
}

// TestBulkPutNegativeSizeRejected: a manifest declaring a negative item
// size is invalid outright.
func TestBulkPutNegativeSizeRejected(t *testing.T) {
	z := newZone(t, Proxy)
	c := rawConn(t, z.addr1, "alice", "alicepw")

	args, _ := json.Marshal(wire.BulkPutArgs{Items: []wire.BulkPutItem{
		{Path: "/home/neg.txt", Resource: "disk1", Size: -1},
	}})
	if err := c.WriteJSON(wire.MsgRequest, wire.Request{ID: 1, Op: wire.OpBulkPut, Args: args}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendData(bytes.NewReader(nil)); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.ReadJSON(wire.MsgResponse, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("negative manifest size accepted")
	}
	if err := resp.Err(); !errors.Is(err, types.ErrInvalid) {
		t.Fatalf("negative-size error = %v, want invalid", err)
	}
}

// TestMultiGetOrderAndPartial: results come back in request order even
// when the storage layout interleaves them, and a missing path yields a
// named per-item error without disturbing its neighbours.
func TestMultiGetOrderAndPartial(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")

	bodies := map[string]string{
		"/home/x.txt": "xray", "/home/y.txt": "yankee", "/home/z.txt": "zulu",
	}
	for p, body := range bodies {
		if _, err := cl.Put(p, []byte(body), client.PutOpts{Resource: "disk1"}); err != nil {
			t.Fatal(err)
		}
	}
	// Request order deliberately differs from ingest order and holes a
	// missing path in the middle.
	paths := []string{"/home/z.txt", "/home/missing.txt", "/home/x.txt", "/home/y.txt"}
	res, err := cl.MultiGet(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(paths) {
		t.Fatalf("got %d results for %d paths", len(res), len(paths))
	}
	for i, p := range paths {
		if res[i].Path != p {
			t.Fatalf("result[%d] is %s, want %s (order not preserved)", i, res[i].Path, p)
		}
	}
	if got := string(res[0].Data); got != "zulu" || res[0].Err != nil {
		t.Fatalf("res[0] = %q, %v", got, res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("missing path returned no error")
	}
	if !errors.Is(res[1].Err, types.ErrNotFound) {
		t.Fatalf("missing-path error = %v, want noent", res[1].Err)
	}
	if got := string(res[2].Data); got != "xray" || res[2].Err != nil {
		t.Fatalf("res[2] = %q, %v", got, res[2].Err)
	}
	if got := string(res[3].Data); got != "yankee" || res[3].Err != nil {
		t.Fatalf("res[3] = %q, %v", got, res[3].Err)
	}
}

// TestBulkStatMixed: stats preserve request order and fail per item.
func TestBulkStatMixed(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")

	if _, err := cl.Put("/home/here.txt", []byte("present"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	items, err := cl.BulkStat([]string{"/home/missing.txt", "/home/here.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	if items[0].OK || !errors.Is(items[0].Err(), types.ErrNotFound) {
		t.Fatalf("missing stat = %+v, want noent", items[0])
	}
	if !items[1].OK || items[1].Stat.Size != int64(len("present")) {
		t.Fatalf("present stat = %+v, want size %d", items[1], len("present"))
	}
}
