package storage

import (
	"gosrb/internal/obs"
)

// IOMetrics are the per-driver byte and operation counters an
// instrumented driver records into. Any field may be nil (not counted).
type IOMetrics struct {
	// BytesIn counts bytes written into the driver (ingest side).
	BytesIn *obs.Counter
	// BytesOut counts bytes read out of the driver (retrieval side).
	BytesOut *obs.Counter
	// Reads counts Open calls, Writes counts Create/OpenAppend calls.
	Reads  *obs.Counter
	Writes *obs.Counter
	// Errors counts failed driver calls.
	Errors *obs.Counter
}

// Instrument decorates d so every byte moved through it is accounted in
// m. The decorator is transparent: physical paths, semantics and the
// optional UsageReporter extension pass straight through.
func Instrument(d Driver, m IOMetrics) Driver {
	if u, ok := d.(UsageReporter); ok {
		return &instrumentedUsage{instrumented{d: d, m: m}, u}
	}
	return &instrumented{d: d, m: m}
}

type instrumented struct {
	d Driver
	m IOMetrics
}

// instrumentedUsage adds the UsageReporter passthrough for drivers that
// track capacity.
type instrumentedUsage struct {
	instrumented
	u UsageReporter
}

func (i *instrumentedUsage) Usage() Usage { return i.u.Usage() }

func (i *instrumented) err(e error) error {
	if e != nil {
		i.m.Errors.Inc()
	}
	return e
}

func (i *instrumented) Create(path string) (WriteFile, error) {
	w, err := i.d.Create(path)
	if err != nil {
		return nil, i.err(err)
	}
	i.m.Writes.Inc()
	return &countingWriter{w: w, n: i.m.BytesIn}, nil
}

func (i *instrumented) OpenAppend(path string) (WriteFile, error) {
	w, err := i.d.OpenAppend(path)
	if err != nil {
		return nil, i.err(err)
	}
	i.m.Writes.Inc()
	return &countingWriter{w: w, n: i.m.BytesIn}, nil
}

func (i *instrumented) Open(path string) (ReadFile, error) {
	r, err := i.d.Open(path)
	if err != nil {
		return nil, i.err(err)
	}
	i.m.Reads.Inc()
	return &countingReader{r: r, n: i.m.BytesOut}, nil
}

func (i *instrumented) Stat(path string) (FileInfo, error) {
	fi, err := i.d.Stat(path)
	return fi, i.err(err)
}

func (i *instrumented) Remove(path string) error { return i.err(i.d.Remove(path)) }

func (i *instrumented) Rename(oldPath, newPath string) error {
	return i.err(i.d.Rename(oldPath, newPath))
}

func (i *instrumented) List(dir string) ([]FileInfo, error) {
	infos, err := i.d.List(dir)
	return infos, i.err(err)
}

func (i *instrumented) Mkdir(path string) error { return i.err(i.d.Mkdir(path)) }

// countingWriter counts bytes accepted by the underlying WriteFile.
type countingWriter struct {
	w WriteFile
	n *obs.Counter
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingWriter) Close() error { return c.w.Close() }

func (c *countingWriter) Abort() error { return AbortWrite(c.w) }

// countingReader counts bytes served by the underlying ReadFile across
// all three read styles.
type countingReader struct {
	r ReadFile
	n *obs.Counter
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) Seek(offset int64, whence int) (int64, error) {
	return c.r.Seek(offset, whence)
}

func (c *countingReader) Close() error { return c.r.Close() }
