package server

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// TestOpTableHasHandlers: the wire Spec table and the server's handler
// table name exactly the same ops, so every declared op dispatches and
// no handler serves an undeclared (never-retried, never-streamed) op.
func TestOpTableHasHandlers(t *testing.T) {
	for op := range wire.Specs {
		if handlers[op] == nil {
			t.Errorf("op %q is declared in wire.Specs but has no handler", op)
		}
	}
	for op := range handlers {
		if _, ok := wire.Specs[op]; !ok {
			t.Errorf("handler for %q has no wire.Specs entry", op)
		}
	}
}

// TestClientOpsHaveHandlers: every wire.Op* constant the client library
// sends resolves to a server handler. The op names are read from the
// client sources, so a new client method cannot ship without its
// server half.
func TestClientOpsHaveHandlers(t *testing.T) {
	fset := token.NewFileSet()
	// The Op constants' wire names, from the wire package source.
	names := map[string]string{}
	wf, err := parser.ParseFile(fset, "../wire/args.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(wf, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
			return true
		}
		if lit, ok := vs.Values[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if v, err := strconv.Unquote(lit.Value); err == nil {
				names[vs.Names[0].Name] = v
			}
		}
		return true
	})
	used := 0
	for _, file := range []string{"../client/client.go", "../client/batch.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "wire" {
				return true
			}
			op, ok := names[sel.Sel.Name]
			if !ok {
				return true // a type or function, not an op constant
			}
			used++
			if handlers[op] == nil {
				t.Errorf("%s sends wire.%s (%q), which has no handler", file, sel.Sel.Name, op)
			}
			return true
		})
	}
	if used < 50 {
		t.Fatalf("found only %d op references in the client sources; the scan is broken", used)
	}
}

// TestStreamsInHandlersConsumePre sends every StreamsIn op with a
// distinct payload and checks that the payload — the stream the reader
// loop pre-read — is what the op stored, and that the usage ledger
// charges exactly those bytes in.
func TestStreamsInHandlersConsumePre(t *testing.T) {
	z := newZone(t, Proxy)
	if err := z.b1.AddPhysicalResource("admin", "disk1b", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}
	c := rawConn(t, z.addr1, "alice", "alicepw")
	const path = "/home/pre.dat"
	content := func(want string) func() error {
		return func() error {
			got, err := z.b1.Get("alice", path)
			if err != nil {
				return err
			}
			if string(got) != want {
				return errors.New("stored " + strconv.Quote(string(got)) + ", want " + strconv.Quote(want))
			}
			return nil
		}
	}
	cases := []struct {
		op    string
		args  any
		data  string
		setup func() error
		check func() error
	}{
		{op: wire.OpIngest, data: "ingested bytes",
			args:  wire.IngestArgs{Path: path, Resource: "disk1"},
			check: content("ingested bytes")},
		{op: wire.OpReingest, data: "reingested bytes",
			args:  wire.PathArgs{Path: path},
			check: content("reingested bytes")},
		{op: wire.OpCheckin, data: "checked-in bytes",
			args:  wire.CheckinArgs{Path: path, Comment: "v2"},
			setup: func() error { return z.b1.Checkout("alice", path) },
			check: content("checked-in bytes")},
		{op: wire.OpIngestReplica, data: "checked-in bytes",
			args: wire.ReplicateArgs{Path: path, Resource: "disk1b"},
			check: func() error {
				_, verdicts, err := z.b1.VerifyChecksums("alice", path)
				if err != nil {
					return err
				}
				if len(verdicts) != 2 {
					return errors.New("want 2 replicas, got " + strconv.Itoa(len(verdicts)))
				}
				for _, v := range verdicts {
					if v.Verdict != "ok" {
						return errors.New("replica on " + v.Resource + " verdict " + v.Verdict)
					}
				}
				return nil
			}},
		{op: wire.OpBulkPut, data: "bulk bytes",
			args: wire.BulkPutArgs{Items: []wire.BulkPutItem{{Path: "/home/bulk.dat", Resource: "disk1", Size: 10}}},
			check: func() error {
				got, err := z.b1.Get("alice", "/home/bulk.dat")
				if err == nil && string(got) != "bulk bytes" {
					err = errors.New("stored " + strconv.Quote(string(got)))
				}
				return err
			}},
	}
	covered := map[string]bool{}
	var sent int64
	for i, tc := range cases {
		covered[tc.op] = true
		if tc.setup != nil {
			if err := tc.setup(); err != nil {
				t.Fatalf("%s setup: %v", tc.op, err)
			}
		}
		args, err := json.Marshal(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		resp := roundTrip(t, c, wire.Request{ID: uint64(i + 1), Op: tc.op, Args: args}, []byte(tc.data))
		if !resp.OK {
			t.Fatalf("%s: %v", tc.op, resp.Err())
		}
		if err := tc.check(); err != nil {
			t.Errorf("%s did not store its stream: %v", tc.op, err)
		}
		sent += int64(len(tc.data))
	}
	for op, spec := range wire.Specs {
		if spec.StreamsIn && !covered[op] {
			t.Errorf("StreamsIn op %q has no case here proving its handler consumes the stream", op)
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

// TestIDZeroRequestClosesConn: every answer is matched by correlation
// ID, so a request without one is a protocol error and the server
// drops the connection instead of answering.
func TestIDZeroRequestClosesConn(t *testing.T) {
	z := newZone(t, Proxy)
	c := rawConn(t, z.addr1, "alice", "alicepw")
	args, _ := json.Marshal(wire.PathArgs{Path: "/home"})
	if err := c.WriteJSON(wire.MsgRequest, wire.Request{Op: wire.OpList, Args: args}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := c.ReadMsg(); err == nil {
		t.Fatalf("server answered an ID-0 request with frame type %d", typ)
	}
	// The server keeps serving well-formed connections.
	if resp := roundTrip(t, rawConn(t, z.addr1, "alice", "alicepw"), wire.Request{Op: wire.OpList, Args: args}, nil); !resp.OK {
		t.Fatalf("list after ID-0 drop: %v", resp.Err())
	}
}

// TestReadYourOwnTelemetry: request telemetry is committed before the
// reply is written, so a client that reads OpStats straight after each
// of its puts always finds every put counted.
func TestReadYourOwnTelemetry(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	const n = 20
	for i := 1; i <= n; i++ {
		path := "/home/tel" + strconv.Itoa(i)
		if _, err := cl.Put(path, []byte("x"), client.PutOpts{Resource: "disk1"}); err != nil {
			t.Fatal(err)
		}
		st, err := cl.OpStats()
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Snapshot.Ops["server.ingest"].Count; got != int64(i) {
			t.Fatalf("after put %d: server.ingest count = %d, want %d", i, got, i)
		}
		use, err := cl.Usage("alice", "/home")
		if err != nil {
			t.Fatal(err)
		}
		if len(use.Entries) != 1 || use.Entries[0].Ops != int64(i) {
			t.Fatalf("after put %d: usage rows = %+v, want %d ops on /home", i, use.Entries, i)
		}
	}
}

// TestProxyExhaustedBudget: a federation relay whose budget is already
// spent fails with ErrTimeout before any bytes reach the peer — for a
// single-attempt mutating op as for a retried read.
func TestProxyExhaustedBudget(t *testing.T) {
	z := newZone(t, Proxy)
	past := time.Now().Add(-time.Second)
	for _, op := range []string{wire.OpIngest, wire.OpGet} {
		args, _ := json.Marshal(wire.PathArgs{Path: "/home/late.dat"})
		_, err := z.s1.proxy("srb2", "alice", &wire.Request{Op: op, Args: args}, []byte("late"), past, nil)
		if !errors.Is(err, types.ErrTimeout) {
			t.Errorf("%s with a spent budget = %v, want ErrTimeout", op, err)
		}
	}
	if st := z.s1.PeerPoolStats(); st.Dialed != 0 {
		t.Errorf("federation pool dialed %d conns for spent budgets, want 0", st.Dialed)
	}
	for name, o := range z.b2.Metrics().Snapshot().Ops {
		if o.Count > 0 && (name == "server."+wire.OpIngest || name == "server."+wire.OpGet) {
			t.Errorf("peer served %s for a spent budget", name)
		}
	}
}
