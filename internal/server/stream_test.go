package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/storage/posixfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// patternBytes has a prime period, so a chunk delivered at the wrong
// offset cannot compare equal.
var patternBytes = func() []byte {
	b := make([]byte, 65521)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}()

// pattern is an allocation-free source of n pattern bytes.
type pattern struct{ off, n int64 }

func (p *pattern) Read(b []byte) (int, error) {
	if p.off >= p.n {
		return 0, io.EOF
	}
	if int64(len(b)) > p.n-p.off {
		b = b[:p.n-p.off]
	}
	for i := 0; i < len(b); {
		i += copy(b[i:], patternBytes[(p.off+int64(i))%int64(len(patternBytes)):])
	}
	p.off += int64(len(b))
	return len(b), nil
}

// patternCheck is a sink that compares what it is given with the
// pattern, without keeping it.
type patternCheck struct {
	n   int64
	bad bool
}

func (c *patternCheck) Write(b []byte) (int, error) {
	for i := 0; i < len(b); {
		want := patternBytes[(c.n+int64(i))%int64(len(patternBytes)):]
		if len(want) > len(b)-i {
			want = want[:len(b)-i]
		}
		if !bytes.Equal(b[i:i+len(want)], want) {
			c.bad = true
		}
		i += len(want)
	}
	c.n += int64(len(b))
	return len(b), nil
}

// addVault mounts a posixfs resource "vault" on srb1 and returns its
// host directory.
func addVault(t *testing.T, z *zone) string {
	t.Helper()
	dir := t.TempDir()
	fsys, err := posixfs.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.b1.AddPhysicalResource("admin", "vault", types.ClassFileSystem, "posixfs", fsys); err != nil {
		t.Fatal(err)
	}
	return dir
}

// send writes one request and, for StreamsIn ops, its data stream.
func send(t *testing.T, c *wire.Conn, id uint64, op string, args any, data io.Reader) {
	t.Helper()
	raw, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSON(wire.MsgRequest, wire.Request{ID: id, Op: op, Args: raw}); err != nil {
		t.Fatal(err)
	}
	if wire.StreamsIn(op) {
		if err := c.SendData(data); err != nil {
			t.Fatal(err)
		}
	}
}

// recv reads one response and copies any data that follows into w.
func recv(t *testing.T, c *wire.Conn, w io.Writer) wire.Response {
	t.Helper()
	var resp wire.Response
	if err := c.ReadJSON(wire.MsgResponse, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.DataFollows {
		if _, err := c.RecvData(w); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestStreamMemoryFence: a 128 MiB ingest and a 128 MiB range read of
// it stream between the wire and the vault. Client and server share
// this process, and together they allocate far less than the object.
func TestStreamMemoryFence(t *testing.T) {
	z := newZone(t, Proxy)
	addVault(t, z)
	c := rawConn(t, z.addr1, "alice", "alicepw")
	const size = 128 << 20
	// Warm the connection, the chunk pool and the catalog paths.
	send(t, c, 1, wire.OpIngest, wire.IngestArgs{Path: "/home/warm.dat", Resource: "vault"}, &pattern{n: 3 * wire.DataChunk})
	if resp := recv(t, c, nil); !resp.OK {
		t.Fatalf("warm put: %v", resp.Err())
	}
	send(t, c, 2, wire.OpReadRange, wire.RangeArgs{Path: "/home/warm.dat", Length: -1}, nil)
	if resp := recv(t, c, io.Discard); !resp.OK {
		t.Fatalf("warm read: %v", resp.Err())
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	send(t, c, 3, wire.OpIngest, wire.IngestArgs{Path: "/home/big.dat", Resource: "vault"}, &pattern{n: size})
	if resp := recv(t, c, nil); !resp.OK {
		t.Fatalf("128 MiB put: %v", resp.Err())
	}
	check := &patternCheck{}
	send(t, c, 4, wire.OpReadRange, wire.RangeArgs{Path: "/home/big.dat", Length: size}, nil)
	if resp := recv(t, c, check); !resp.OK {
		t.Fatalf("128 MiB range read: %v", resp.Err())
	}
	runtime.ReadMemStats(&after)

	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("128 MiB put + range read allocated %d MiB, want < 16 MiB", grew>>20)
	}
	if check.n != size || check.bad {
		t.Errorf("range read returned %d bytes, corrupted=%v", check.n, check.bad)
	}
	h := sha256.New()
	io.Copy(h, &pattern{n: size})
	o, err := z.cat.GetObject("/home/big.dat")
	if err != nil {
		t.Fatal(err)
	}
	if want := hex.EncodeToString(h.Sum(nil)); o.Size != size || o.Checksum != want || o.Replicas[0].Checksum != want {
		t.Errorf("catalogued size %d checksum %s, want %d %s", o.Size, o.Checksum, int64(size), want)
	}
}

// TestStreamsInRejectedKeepsConn: a put refused before its data is
// read leaves the connection usable — the rest of its stream is
// drained, and the next pipelined request on the conn is answered.
func TestStreamsInRejectedKeepsConn(t *testing.T) {
	z := newZone(t, Proxy)
	z.cat.MkColl("/sealed", "admin") // alice holds no grant here
	c := rawConn(t, z.addr1, "alice", "alicepw")
	send(t, c, 1, wire.OpIngest, wire.IngestArgs{Path: "/sealed/x.dat", Resource: "disk1"}, &pattern{n: 4 << 20})
	send(t, c, 2, wire.OpList, wire.PathArgs{Path: "/home"}, nil)
	for i := 0; i < 2; i++ {
		resp := recv(t, c, io.Discard)
		switch resp.ID {
		case 1:
			if !errors.Is(resp.Err(), types.ErrPermission) {
				t.Errorf("put into /sealed = %v, want permission denied", resp.Err())
			}
		case 2:
			if !resp.OK {
				t.Errorf("list after the refused put = %v", resp.Err())
			}
		default:
			t.Fatalf("response for unknown request %d", resp.ID)
		}
	}
}

// TestIngestCutMidStreamLeavesNothing: a client that drops its
// connection halfway through a 4 MiB put leaves no file in the vault
// and no catalog row.
func TestIngestCutMidStreamLeavesNothing(t *testing.T) {
	z := newZone(t, Proxy)
	dir := addVault(t, z)
	c, nc := rawDial(t, z.addr1, "alice", "alicepw")
	raw, _ := json.Marshal(wire.IngestArgs{Path: "/home/cut.dat", Resource: "vault"})
	if err := c.WriteJSON(wire.MsgRequest, wire.Request{ID: 1, Op: wire.OpIngest, Args: raw}); err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, wire.DataChunk)
	for sent := 0; sent < 2<<20; sent += len(chunk) {
		if err := c.WriteMsg(wire.MsgData, chunk); err != nil {
			t.Fatal(err)
		}
	}
	nc.Close()

	deadline := time.Now().Add(10 * time.Second)
	for z.b1.Metrics().Snapshot().Ops["server."+wire.OpIngest].Count == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the cut ingest never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := z.b1.Metrics().Snapshot().Ops["server."+wire.OpIngest]; st.Errors != 1 {
		t.Errorf("cut ingest recorded %d errors, want 1", st.Errors)
	}
	if _, err := z.cat.GetObject("/home/cut.dat"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("catalog row after a cut ingest: %v", err)
	}
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("cut ingest left %s in the vault", p)
		}
		return nil
	})
}

// TestStreamsInLiveHandlers: every StreamsIn op stores a stream longer
// than the read-ahead chunk — handed to its handler live — and the
// usage ledger charges exactly the bytes streamed.
func TestStreamsInLiveHandlers(t *testing.T) {
	z := newZone(t, Proxy)
	if err := z.b1.AddPhysicalResource("admin", "disk1b", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}
	c := rawConn(t, z.addr1, "alice", "alicepw")
	const n = 2*wire.DataChunk + 3
	const path = "/home/live.dat"
	stored := func(p string, tag byte) func() error {
		return func() error {
			got, err := z.b1.Get("alice", p)
			if err == nil && !bytes.Equal(got, bytes.Repeat([]byte{tag}, n)) {
				err = errors.New(p + " holds other bytes")
			}
			return err
		}
	}
	cases := []struct {
		op    string
		args  any
		setup func() error
		check func() error
	}{
		{op: wire.OpIngest, args: wire.IngestArgs{Path: path, Resource: "disk1"}},
		{op: wire.OpReingest, args: wire.PathArgs{Path: path}},
		{op: wire.OpCheckin, args: wire.CheckinArgs{Path: path, Comment: "v3"},
			setup: func() error { return z.b1.Checkout("alice", path) }},
		{op: wire.OpIngestReplica, args: wire.ReplicateArgs{Path: path, Resource: "disk1b"}},
		{op: wire.OpBulkPut, args: wire.BulkPutArgs{Items: []wire.BulkPutItem{{Path: "/home/livebulk.dat", Resource: "disk1", Size: n}}},
			check: stored("/home/livebulk.dat", 'e')},
	}
	var sent int64
	for i, tc := range cases {
		if tc.setup != nil {
			if err := tc.setup(); err != nil {
				t.Fatalf("%s setup: %v", tc.op, err)
			}
		}
		tag := byte('a' + i)
		send(t, c, uint64(i+1), tc.op, tc.args, bytes.NewReader(bytes.Repeat([]byte{tag}, n)))
		if resp := recv(t, c, nil); !resp.OK {
			t.Fatalf("%s: %v", tc.op, resp.Err())
		}
		sent += n
		check := tc.check
		if check == nil {
			check = stored(path, tag)
			if tc.op == wire.OpIngestReplica {
				check = func() error {
					o, err := z.cat.GetObject(path)
					if err == nil && (len(o.Replicas) != 2 || o.Replicas[1].Size != n) {
						err = errors.New("replica on disk1b missing or wrong size: " + strconv.Itoa(len(o.Replicas)))
					}
					return err
				}
			}
		}
		if err := check(); err != nil {
			t.Errorf("%s did not store its live stream: %v", tc.op, err)
		}
	}
	var in int64
	for _, u := range z.b1.Metrics().Usage().Snapshot() {
		if u.User == "alice" {
			in += u.BytesIn
		}
	}
	if in != sent {
		t.Errorf("usage ledger charged %d bytes in, want the %d streamed", in, sent)
	}
}

// TestStreamedReadsMatch: gets and range reads longer than one chunk
// stream from the open replica and return exactly the stored bytes,
// whatever the chunk alignment.
func TestStreamedReadsMatch(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	size := int64(4*wire.DataChunk + 5)
	data := make([]byte, size)
	io.ReadFull(&pattern{n: size}, data)
	if _, err := cl.Put("/home/s.dat", data, client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get("/home/s.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get = %d bytes, %v", len(got), err)
	}
	for _, r := range [][2]int64{
		{0, wire.DataChunk}, {0, wire.DataChunk + 1}, {wire.DataChunk - 1, wire.DataChunk + 2},
		{100, size - 100}, {size - 10, 100}, {7, -1},
	} {
		got, err := cl.GetRange("/home/s.dat", r[0], r[1])
		end := size
		if r[1] >= 0 && r[0]+r[1] < size {
			end = r[0] + r[1]
		}
		if err != nil || !bytes.Equal(got, data[r[0]:end]) {
			t.Errorf("range %v = %d bytes, %v", r, len(got), err)
		}
	}
	if got, err := cl.ParallelGet("/home/s.dat", 3); err != nil || !bytes.Equal(got, data) {
		t.Errorf("parallel get = %d bytes, %v", len(got), err)
	}
	st := z.b1.Metrics().Snapshot()
	if st.Ops["server."+wire.OpGet].Errors != 0 || st.Ops["server."+wire.OpReadRange].Errors != 0 {
		t.Errorf("streamed reads recorded errors: %+v %+v", st.Ops["server."+wire.OpGet], st.Ops["server."+wire.OpReadRange])
	}
}

// TestStreamedGetShortReplicaClosesConn: a replica that ends before its
// catalogued size fails mid-stream, after the OK response went out.
// The server closes the connection rather than end the stream short,
// and keeps serving other connections.
func TestStreamedGetShortReplicaClosesConn(t *testing.T) {
	z := newZone(t, Proxy)
	data := make([]byte, 4*wire.DataChunk)
	io.ReadFull(&pattern{n: int64(len(data))}, data)
	if _, err := z.b1.Ingest("alice", core.IngestOpts{Path: "/home/short.dat", Data: bytes.NewReader(data), Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	o, _ := z.cat.GetObject("/home/short.dat")
	d, _ := z.b1.Driver("disk1")
	if err := storage.WriteAll(d, o.Replicas[0].PhysicalPath, data[:2*wire.DataChunk+1]); err != nil {
		t.Fatal(err)
	}
	c := rawConn(t, z.addr1, "alice", "alicepw")
	send(t, c, 1, wire.OpGet, wire.PathArgs{Path: "/home/short.dat"}, nil)
	var resp wire.Response
	if err := c.ReadJSON(wire.MsgResponse, &resp); err != nil || !resp.OK || !resp.DataFollows {
		t.Fatalf("get response = %+v, %v", resp, err)
	}
	n, err := c.RecvData(io.Discard)
	if err == nil {
		t.Fatalf("short replica streamed as a complete %d-byte stream", n)
	}
	if resp := roundTrip(t, rawConn(t, z.addr1, "alice", "alicepw"), wire.Request{Op: wire.OpList, Args: mustJSON(t, wire.PathArgs{Path: "/home"})}, nil); !resp.OK {
		t.Fatalf("list on a new conn: %v", resp.Err())
	}
}
