package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/storage"
	"gosrb/internal/storage/dbfs"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// TestAvianCultureScenario walks the paper's §4 exemplar end to end:
// "Consider a curator who wants to form a new collection called 'Avian
// Culture' under an existing 'Cultures' collection." Every sentence of
// the scenario maps to an assertion below.
func TestAvianCultureScenario(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	b := New(cat, "srb1")
	b.AddPhysicalResource("admin", "disk", types.ClassFileSystem, "memfs", memfs.New())
	db := dbfs.New()
	b.AddPhysicalResource("admin", "museumdb", types.ClassDatabase, "dbfs", db)

	cat.AddUser(types.User{Name: "curator", Domain: "sdsc"})
	cat.AddUser(types.User{Name: "co-curator", Domain: "caltech"})
	cat.AddUser(types.User{Name: "annotator", Domain: "ucsd"})
	cat.AddUser(types.User{Name: "public-user", Domain: "anywhere"})

	// An existing "Cultures" collection, and the new one beneath it.
	cat.MkColl("/Cultures", "curator")
	if err := b.Mkdir("curator", "/Cultures/Avian Culture"); err != nil {
		t.Fatal(err)
	}
	avian := "/Cultures/Avian Culture"

	// "she wants to have them include some minimal set of metadata based
	// on entities defined under 'MetaCore for Cultures' which she has
	// augmented with more attributes relevant to her specialized topic."
	must(t, b.SetStructural("curator", "/Cultures", types.StructuralAttr{
		Name: "culture-core", Mandatory: true, Comment: "MetaCore for Cultures",
	}))
	must(t, b.SetStructural("curator", avian, types.StructuralAttr{
		Name: "species", Mandatory: true,
	}))
	must(t, b.SetStructural("curator", avian, types.StructuralAttr{
		Name: "region", Defaults: []string{"nearctic", "palearctic", "neotropic"},
	}))

	// "She would also like to allow other curators to include their own
	// materials into the collection."
	must(t, b.Chmod("curator", avian, "co-curator", acl.Write))
	// "a set of selected users to add additional metadata" — but they
	// need ownership-level rights only for metadata; give the annotator
	// read (annotations) per the paper's annotation rule.
	must(t, b.Chmod("curator", avian, "annotator", acl.Read))
	// "public users to be able to access her collection by browsing".
	must(t, b.Chmod("curator", avian, acl.Public, acl.Read))

	// Gathering "documents and multi-media ... located as distributed
	// files, images, and movies stored on diverse media-formats":
	// 1. A file ingested under the collection's control.
	_, err := b.Ingest("co-curator", IngestOpts{
		Path: avian + "/finch-song.txt", Data: bytes.NewReader([]byte("recording notes")),
		Resource: "disk",
		Meta: []types.AVU{
			{Name: "culture-core", Value: "avian"},
			{Name: "species", Value: "zebra finch"},
		},
	})
	must(t, err)
	// Ingestion without the mandatory MetaCore attributes is refused.
	if _, err := b.Ingest("co-curator", IngestOpts{
		Path: avian + "/bad.txt", Data: nil, Resource: "disk",
	}); !errors.Is(err, types.ErrMandatoryMeta) {
		t.Fatalf("mandatory metadata not enforced: %v", err)
	}

	// 2. "others might be owned and curated by outside administrators
	// with only links provided to them" — a registered file and a URL.
	d, _ := b.Driver("disk")
	storage.WriteAll(d, "/museum/archive/heron.tiff", []byte("tiff bytes"))
	_, err = b.RegisterFile("curator", avian+"/heron.tiff", "disk", "/museum/archive/heron.tiff",
		[]types.AVU{{Name: "culture-core", Value: "avian"}, {Name: "species", Value: "great heron"}})
	must(t, err)
	b.Fetcher().RegisterMemBytes("mem://aviary.org/crane", []byte("external page"))
	_, err = b.RegisterURL("curator", avian+"/crane-page", "mem://aviary.org/crane")
	must(t, err)

	// 3. A database-resident catalog exposed as a registered SQL query.
	db.Database().Exec("CREATE TABLE sightings (species, location, year)")
	db.Database().Exec("INSERT INTO sightings VALUES ('zebra finch', 'Australia', 2001), ('great heron', 'Florida', 2002)")
	_, err = b.RegisterSQL("curator", avian+"/sightings", types.SQLSpec{
		Resource: "museumdb", Query: "SELECT species, location, year FROM sightings ORDER BY year",
		Template: "HTMLREL",
	})
	must(t, err)

	// "she would like users to add their own comments, ratings, errata
	// and dialogues and annotations which will make the collection
	// richer" — any reader may annotate.
	must(t, b.Annotate("annotator", avian+"/finch-song.txt", types.Annotation{
		Kind: "rating", Text: "5/5 beautiful recording",
	}))
	must(t, b.Annotate("public-user", avian+"/heron.tiff", types.Annotation{
		Kind: "errata", Text: "location label is wrong",
	}))

	// "include multi-modal relationships among the collection items so
	// that one can link the objects in many ways" — related-object
	// metadata plus a soft link in a second arrangement.
	must(t, b.AddMeta("curator", avian+"/finch-song.txt", types.MetaUser,
		types.AVU{Name: "related", Value: avian + "/sightings"}))
	must(t, b.Mkdir("curator", avian+"/by-region"))
	must(t, b.Mkdir("curator", avian+"/by-region/nearctic"))
	must(t, b.Link("curator", avian+"/heron.tiff", avian+"/by-region/nearctic/heron.tiff"))

	// Public browsing: the hierarchy plus both arrangements are visible.
	entries, err := b.List("public-user", avian)
	must(t, err)
	if len(entries) != 5 { // by-region, crane-page, finch-song, heron, sightings
		t.Fatalf("public listing = %d entries: %+v", len(entries), entries)
	}
	// Public access via the link inherits the original's ACL.
	data, err := b.Get("public-user", avian+"/by-region/nearctic/heron.tiff")
	if err != nil || string(data) != "tiff bytes" {
		t.Fatalf("public link read = %q, %v", data, err)
	}
	// The SQL object renders for the public at retrieval time.
	report, err := b.Get("public-user", avian+"/sightings")
	if err != nil || !strings.Contains(string(report), "zebra finch") {
		t.Fatalf("public report = %v", err)
	}

	// "search/query the collection using the rich mix of metadata based
	// on standardized meta data, curatorial meta data, user annotations".
	hits, err := b.Query("public-user", mcat.Query{
		Scope: "/Cultures",
		Conds: []mcat.Condition{{Attr: "species", Op: "like", Value: "%finch%"}},
	})
	must(t, err)
	if len(hits) != 1 || hits[0].Path != avian+"/finch-song.txt" {
		t.Fatalf("species query = %+v", hits)
	}
	hits, err = b.Query("public-user", mcat.Query{
		Scope: "/Cultures",
		Conds: []mcat.Condition{{Attr: "annotation", Op: "like", Value: "%beautiful%"}},
	})
	must(t, err)
	if len(hits) != 1 {
		t.Fatalf("annotation query = %+v", hits)
	}
	// The query drop-down offers the curator's augmented attribute set.
	names := b.QueryAttrNames("public-user", "/Cultures")
	joined := strings.Join(names, ",")
	for _, want := range []string{"culture-core", "species", "region", "related"} {
		if !strings.Contains(joined, want) {
			t.Errorf("attr drop-down missing %q: %v", want, names)
		}
	}

	// The public cannot modify anything.
	if err := b.Reingest("public-user", avian+"/finch-song.txt", []byte("defaced")); !errors.Is(err, types.ErrPermission) {
		t.Errorf("public write = %v", err)
	}
	if err := b.AddMeta("public-user", avian+"/finch-song.txt", types.MetaUser, types.AVU{Name: "x", Value: "y"}); !errors.Is(err, types.ErrPermission) {
		t.Errorf("public meta write = %v", err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
