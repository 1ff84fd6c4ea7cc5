package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/storage"
	"gosrb/internal/storage/dbfs"
	"gosrb/internal/types"
)

// withDB adds a database resource to the rig and returns its engine.
func withDB(t *testing.T, b *Broker) *dbfs.FS {
	t.Helper()
	db := dbfs.New()
	if err := b.AddPhysicalResource("admin", "dbrsrc", types.ClassDatabase, "dbfs", db); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRegisterFile(t *testing.T) {
	b := newBroker(t)
	d, _ := b.Driver("disk1")
	if err := storage.WriteAll(d, "/outside/existing.dat", []byte("pre-existing bytes")); err != nil {
		t.Fatal(err)
	}
	o, err := b.RegisterFile("alice", "/home/reg", "disk1", "/outside/existing.dat", nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != types.KindRegisteredFile || !o.Replicas[0].Registered {
		t.Errorf("registered object = %+v", o)
	}
	data, err := b.Get("alice", "/home/reg")
	if err != nil || string(data) != "pre-existing bytes" {
		t.Errorf("Get registered = %q, %v", data, err)
	}
	// The bytes may drift without SRB knowing; reads see current bytes.
	storage.WriteAll(d, "/outside/existing.dat", []byte("drifted"))
	data, _ = b.Get("alice", "/home/reg")
	if string(data) != "drifted" {
		t.Errorf("drifted read = %q", data)
	}
	// Registering a missing physical path fails.
	if _, err := b.RegisterFile("alice", "/home/x", "disk1", "/nope", nil); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing phys: %v", err)
	}
	// Deletion removes the physical file too (paper allows it).
	if err := b.Delete("alice", "/home/reg"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stat("/outside/existing.dat"); !errors.Is(err, types.ErrNotFound) {
		t.Error("registered file should be physically deleted")
	}
}

func TestShadowDirectory(t *testing.T) {
	b := newBroker(t)
	d, _ := b.Driver("disk1")
	storage.WriteAll(d, "/cone/a.txt", []byte("A"))
	storage.WriteAll(d, "/cone/sub/b.txt", []byte("B"))
	o, err := b.RegisterDirectory("alice", "/home/shadow", "disk1", "/cone")
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != types.KindShadowDir {
		t.Fatalf("kind = %v", o.Kind)
	}
	infos, err := b.ShadowList("alice", "/home/shadow", ".")
	if err != nil || len(infos) != 2 {
		t.Fatalf("ShadowList = %+v, %v", infos, err)
	}
	infos, err = b.ShadowList("alice", "/home/shadow", "sub")
	if err != nil || len(infos) != 1 {
		t.Errorf("sub list = %+v, %v", infos, err)
	}
	data, err := b.ShadowOpen("alice", "/home/shadow", "sub/b.txt")
	if err != nil || string(data) != "B" {
		t.Errorf("ShadowOpen = %q, %v", data, err)
	}
	// Escapes are confined.
	if _, err := b.ShadowOpen("alice", "/home/shadow", "../../etc/passwd"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("escape: %v", err)
	}
	// Get renders the cone listing.
	listing, err := b.Get("alice", "/home/shadow")
	if err != nil || !strings.Contains(string(listing), "/cone/a.txt") {
		t.Errorf("Get shadow = %q, %v", listing, err)
	}
	// Deletion unlinks without touching the cone.
	if err := b.Delete("alice", "/home/shadow"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stat("/cone/a.txt"); err != nil {
		t.Error("cone must survive shadow deletion")
	}
}

func TestRegisterSQLAndExecute(t *testing.T) {
	b := newBroker(t)
	db := withDB(t, b)
	db.Database().Exec("CREATE TABLE stars (name, mag)")
	db.Database().Exec("INSERT INTO stars VALUES ('vega', 0.03), ('sirius', -1.46)")

	o, err := b.RegisterSQL("alice", "/home/q1", types.SQLSpec{
		Resource: "dbrsrc",
		Query:    "SELECT name, mag FROM stars ORDER BY mag",
		Template: "HTMLREL",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != types.KindSQL {
		t.Fatalf("kind = %v", o.Kind)
	}
	out, err := b.Get("alice", "/home/q1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "<td>sirius</td>") || !strings.Contains(string(out), "<th>name</th>") {
		t.Errorf("HTMLREL output:\n%s", out)
	}
	// The query runs at retrieval: new rows appear.
	db.Database().Exec("INSERT INTO stars VALUES ('deneb', 1.25)")
	out, _ = b.Get("alice", "/home/q1")
	if !strings.Contains(string(out), "deneb") {
		t.Error("retrieval-time execution should see new rows")
	}
	// Non-SELECT registrations are rejected.
	if _, err := b.RegisterSQL("alice", "/home/q2", types.SQLSpec{
		Resource: "dbrsrc", Query: "DELETE FROM stars",
	}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("non-select: %v", err)
	}
	// Deletion removes the query but not the table.
	if err := b.Delete("alice", "/home/q1"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Database().Exec("SELECT COUNT(*) FROM stars")
	if err != nil || res.Rows[0][0].Float() != 3 {
		t.Error("underlying table must survive query deletion")
	}
}

func TestPartialSQLCompletedAtRetrieval(t *testing.T) {
	b := newBroker(t)
	db := withDB(t, b)
	db.Database().Exec("CREATE TABLE stars (name, mag)")
	db.Database().Exec("INSERT INTO stars VALUES ('vega', 0.03), ('sirius', -1.46)")
	b.RegisterSQL("alice", "/home/qp", types.SQLSpec{
		Resource: "dbrsrc",
		Query:    "SELECT name FROM stars",
		Partial:  true,
		Template: "XMLREL",
	})
	out, err := b.ExecuteSQL("alice", "/home/qp", "WHERE mag < 0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "sirius") || strings.Contains(string(out), "vega") {
		t.Errorf("partial query output:\n%s", out)
	}
}

func TestSQLWithCustomStyleSheet(t *testing.T) {
	b := newBroker(t)
	db := withDB(t, b)
	db.Database().Exec("CREATE TABLE t (a, b)")
	db.Database().Exec("INSERT INTO t VALUES ('x', 'y')")
	// The style sheet is itself a T-language file stored in SRB.
	sheet := "head: BEGIN\nrow: [$1|$2]\ntail: END\n"
	b.Ingest("alice", IngestOpts{Path: "/home/sheet.t", Data: bytes.NewReader([]byte(sheet)), Resource: "disk1"})
	b.RegisterSQL("alice", "/home/q", types.SQLSpec{
		Resource: "dbrsrc", Query: "SELECT a, b FROM t", Template: "/home/sheet.t",
	})
	out, err := b.Get("alice", "/home/q")
	if err != nil {
		t.Fatal(err)
	}
	want := "BEGIN\n[x|y]\nEND\n"
	if string(out) != want {
		t.Errorf("styled output = %q, want %q", out, want)
	}
}

func TestRegisterURL(t *testing.T) {
	b := newBroker(t)
	b.Fetcher().RegisterMemBytes("mem://site/page", []byte("remote content"))
	o, err := b.RegisterURL("alice", "/home/u", "mem://site/page")
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != types.KindURL {
		t.Fatalf("kind = %v", o.Kind)
	}
	data, err := b.Get("alice", "/home/u")
	if err != nil || string(data) != "remote content" {
		t.Errorf("url get = %q, %v", data, err)
	}
	// Deletion removes the pointer, not the content.
	if err := b.Delete("alice", "/home/u"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Fetcher().Fetch("mem://site/page"); err != nil {
		t.Error("URL contents must survive deletion")
	}
	if _, err := b.RegisterURL("alice", "/home/u2", ""); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("empty url: %v", err)
	}
}

func TestMethodObjects(t *testing.T) {
	b := newBroker(t)
	// Admin installs the srbps proxy command (the paper's example).
	err := b.RegisterCommand("admin", "srbps", func(args []string) ([]byte, error) {
		return []byte("PID CMD\n1 srbd " + strings.Join(args, " ")), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Non-admin cannot install commands.
	if err := b.RegisterCommand("alice", "evil", nil); !errors.Is(err, types.ErrPermission) {
		t.Errorf("non-admin install: %v", err)
	}
	o, err := b.RegisterMethod("alice", "/home/ps", types.MethodSpec{
		Proxy: true, Name: "srbps", Args: []string{"-a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Kind != types.KindMethod {
		t.Fatalf("kind = %v", o.Kind)
	}
	out, err := b.InvokeMethod("alice", "/home/ps", []string{"-x"})
	if err != nil || !strings.Contains(string(out), "srbd -a -x") {
		t.Errorf("invoke = %q, %v", out, err)
	}
	// Get also runs the method (access = execution).
	out, err = b.Get("alice", "/home/ps")
	if err != nil || !strings.Contains(string(out), "PID CMD") {
		t.Errorf("get method = %q, %v", out, err)
	}
	// Unregistered command name refuses registration.
	if _, err := b.RegisterMethod("alice", "/home/m2", types.MethodSpec{Name: "ghost"}); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("unknown command: %v", err)
	}
}

func TestRegisterReplicaAlternates(t *testing.T) {
	b := newBroker(t)
	b.Fetcher().RegisterMemBytes("mem://primary", []byte("primary"))
	b.Fetcher().RegisterMemBytes("mem://backup", []byte("backup"))
	b.RegisterURL("alice", "/home/u", "mem://primary")
	if err := b.RegisterReplicaSpec("alice", "/home/u", types.AltSpec{
		Kind: types.KindURL, URL: "mem://backup",
	}); err != nil {
		t.Fatal(err)
	}
	// Primary healthy: primary served.
	data, _ := b.Get("alice", "/home/u")
	if string(data) != "primary" {
		t.Errorf("primary read = %q", data)
	}
	// Primary gone: the registered replicate answers.
	b.Fetcher().RegisterMem("mem://primary", nil)
	data, err := b.Get("alice", "/home/u")
	if err != nil || string(data) != "backup" {
		t.Errorf("alternate read = %q, %v", data, err)
	}
	// Alternates only attach to registered kinds.
	b.Ingest("alice", IngestOpts{Path: "/home/plain", Data: bytes.NewReader([]byte("x")), Resource: "disk1"})
	if err := b.RegisterReplicaSpec("alice", "/home/plain", types.AltSpec{Kind: types.KindURL, URL: "mem://backup"}); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("alt on plain file: %v", err)
	}
}

func TestIngestReplicaSyntacticallyDifferent(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/img", Data: bytes.NewReader([]byte("TIFF bytes")), Resource: "disk1"})
	rep, err := b.IngestReplica("alice", "/home/img", "disk2", []byte("GIF bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Number != 1 {
		t.Errorf("replica = %+v", rep)
	}
	o, _ := b.Cat.GetObject("/home/img")
	if len(o.Replicas) != 2 {
		t.Fatalf("replicas = %+v", o.Replicas)
	}
	// SRB does not check equality; both copies are clean and readable.
	if o.Replicas[0].Checksum == o.Replicas[1].Checksum {
		t.Error("checksums should differ for different bytes")
	}
}

func TestRegisteredDirDenyIngest(t *testing.T) {
	b := newBroker(t)
	d, _ := b.Driver("disk1")
	storage.WriteAll(d, "/cone/a", []byte("A"))
	b.RegisterDirectory("alice", "/home/sh", "disk1", "/cone")
	// Shadow dirs expose read-only views: Reingest is unsupported.
	if err := b.Reingest("alice", "/home/sh", []byte("x")); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("reingest shadow: %v", err)
	}
}

func TestResourceACLBlocksIngest(t *testing.T) {
	b := newBroker(t)
	b.Cat.SetResourceACL("disk1", "bob", acl.Read)
	b.Cat.SetACL("/home", "bob", acl.Write)
	if _, err := b.Ingest("bob", IngestOpts{Path: "/home/bobf", Data: nil, Resource: "disk1"}); !errors.Is(err, types.ErrPermission) {
		t.Errorf("resource ACL: %v", err)
	}
	if _, err := b.Ingest("bob", IngestOpts{Path: "/home/bobf", Data: nil, Resource: "disk2"}); err != nil {
		t.Errorf("open resource: %v", err)
	}
}
