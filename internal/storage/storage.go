// Package storage defines the driver abstraction the SRB broker uses
// to reach heterogeneous storage systems, mirroring the paper's list:
// archival systems (HPSS, UniTree, ADSM), file systems (Unix, NTFS) and
// databases (Oracle, DB2, Sybase).
//
// A Driver manages the physical store of one resource. Drivers speak in
// physical paths; the logical name space and all policy (replication,
// access control, containers) live above, in the catalog and broker.
package storage

import (
	"errors"
	"io"
	"sort"
	"strings"
	"time"

	"gosrb/internal/types"
)

// ReadFile is an open handle for reading: sequential, seekable and
// positional reads are all supported so containers can extract member
// byte ranges without copying the whole segment.
type ReadFile interface {
	io.Reader
	io.Seeker
	io.ReaderAt
	io.Closer
}

// WriteFile is an open handle for writing. Contents become visible to
// readers atomically at Close.
type WriteFile interface {
	io.Writer
	io.Closer
}

// Aborter is an optional WriteFile extension for handles that stage
// their contents: Abort drops the staged bytes instead of publishing
// them, leaving the path as it was.
type Aborter interface {
	Abort() error
}

// AbortWrite aborts w when it is an Aborter and fails with
// types.ErrUnsupported otherwise. Wrapping handles implement Abort
// with it.
func AbortWrite(w WriteFile) error {
	if a, ok := w.(Aborter); ok {
		return a.Abort()
	}
	return types.ErrUnsupported
}

// Discard ends a failed write to path on d without publishing it: the
// handle aborts when it can, and is otherwise closed and the path
// removed, so no partial file stays at path. Only for handles from
// Create — an append handle's earlier contents are not the caller's to
// remove.
func Discard(d Driver, path string, w WriteFile) {
	if AbortWrite(w) == nil {
		return
	}
	w.Close()
	d.Remove(path)
}

// FileInfo describes one stored file or directory.
type FileInfo struct {
	Path    string // physical path within the resource
	Size    int64
	ModTime time.Time
	IsDir   bool
}

// Driver is the storage-system abstraction. Implementations must be
// safe for concurrent use.
type Driver interface {
	// Create opens path for writing, truncating any previous contents.
	// Parent directories are created implicitly.
	Create(path string) (WriteFile, error)
	// OpenAppend opens path for appending, creating it if absent.
	// Containers rely on this to grow segment files.
	OpenAppend(path string) (WriteFile, error)
	// Open opens path for reading.
	Open(path string) (ReadFile, error)
	// Stat describes path.
	Stat(path string) (FileInfo, error)
	// Remove deletes the file at path. Removing a missing path returns
	// types.ErrNotFound.
	Remove(path string) error
	// Rename atomically moves old to new within the resource.
	Rename(oldPath, newPath string) error
	// List returns the entries directly under dir, sorted by path.
	List(dir string) ([]FileInfo, error)
	// Mkdir creates a directory (and parents). Drivers with a flat
	// namespace may treat it as a no-op that only validates the path.
	Mkdir(path string) error
}

// Usage reports capacity accounting for drivers that track it; cache
// management uses it to decide when to purge.
type Usage struct {
	Bytes int64 // bytes currently stored
	Files int   // number of files
}

// UsageReporter is an optional Driver extension.
type UsageReporter interface {
	Usage() Usage
}

// WriteAll stores contents at path in a single call.
func WriteAll(d Driver, path string, contents []byte) error {
	w, err := d.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(contents); err != nil {
		Discard(d, path, w)
		return err
	}
	return w.Close()
}

// ReadAll retrieves the full contents of path.
func ReadAll(d Driver, path string) ([]byte, error) {
	r, err := d.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// ReadRange reads length bytes starting at offset from path. It is the
// primitive container member extraction uses.
func ReadRange(d Driver, path string, offset, length int64) ([]byte, error) {
	r, err := d.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, length)
	n, err := r.ReadAt(buf, offset)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf[:n], nil
}

// Copy streams the file at srcPath on src to dstPath on dst and returns
// the byte count.
func Copy(dst Driver, dstPath string, src Driver, srcPath string) (int64, error) {
	r, err := src.Open(srcPath)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	w, err := dst.Create(dstPath)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(w, r)
	if err != nil {
		Discard(dst, dstPath, w)
		return n, err
	}
	return n, w.Close()
}

// ValidPhysicalPath reports whether p is acceptable as a physical path:
// cleaned, absolute, NUL-free and not escaping the root.
func ValidPhysicalPath(p string) bool {
	if p == "" || strings.Contains(p, "\x00") {
		return false
	}
	c := types.CleanPath(p)
	return c == p || c == strings.TrimSuffix(p, "/")
}

// SortInfos orders listing entries by path, the order List must return.
func SortInfos(infos []FileInfo) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].Path < infos[j].Path })
}
