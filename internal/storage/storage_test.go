package storage_test

import (
	"errors"
	"io/fs"
	"path/filepath"
	"testing"

	"gosrb/internal/storage"
	"gosrb/internal/storage/posixfs"
	"gosrb/internal/types"
)

var errDisk = errors.New("disk write failed")

// failAfter wraps a driver so each writer fails once it has accepted n
// bytes. abort selects whether the wrapper passes Abort through.
type failAfter struct {
	storage.Driver
	n     int
	abort bool
}

func (d failAfter) Create(path string) (storage.WriteFile, error) {
	w, err := d.Driver.Create(path)
	if err != nil {
		return nil, err
	}
	fw := &failWriter{w: w, left: d.n}
	if d.abort {
		return abortingWriter{fw}, nil
	}
	return fw, nil
}

type failWriter struct {
	w    storage.WriteFile
	left int
}

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) <= f.left {
		f.left -= len(p)
		return f.w.Write(p)
	}
	n, _ := f.w.Write(p[:f.left])
	f.left = 0
	return n, errDisk
}

func (f *failWriter) Close() error { return f.w.Close() }

type abortingWriter struct{ *failWriter }

func (a abortingWriter) Abort() error { return storage.AbortWrite(a.w) }

// TestWriteAllFailedWritePublishesNothing: a write that fails after N
// bytes leaves no file at the physical path and no staged temp file,
// whether or not the failing handle can abort. An aborting handle also
// keeps the path's previous contents.
func TestWriteAllFailedWritePublishesNothing(t *testing.T) {
	for _, abort := range []bool{false, true} {
		dir := t.TempDir()
		inner, err := posixfs.New(dir)
		if err != nil {
			t.Fatal(err)
		}
		d := failAfter{Driver: inner, n: 1000, abort: abort}
		if err := storage.WriteAll(d, "/v/fresh", make([]byte, 5000)); !errors.Is(err, errDisk) {
			t.Fatalf("abort=%v: WriteAll = %v, want the write failure", abort, err)
		}
		if _, err := inner.Stat("/v/fresh"); !errors.Is(err, types.ErrNotFound) {
			t.Errorf("abort=%v: failed write published a file: %v", abort, err)
		}
		var files []string
		filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				files = append(files, p)
			}
			return nil
		})
		if len(files) != 0 {
			t.Errorf("abort=%v: failed write left %v", abort, files)
		}
		if !abort {
			continue
		}
		if err := storage.WriteAll(inner, "/v/old", []byte("old contents")); err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteAll(d, "/v/old", make([]byte, 5000)); !errors.Is(err, errDisk) {
			t.Fatalf("overwrite = %v, want the write failure", err)
		}
		if got, err := storage.ReadAll(inner, "/v/old"); err != nil || string(got) != "old contents" {
			t.Errorf("aborted overwrite left %.20q, %v; want the old contents", got, err)
		}
	}
}
