// Package simnet simulates wide-area network conditions for the
// experiments: per-operation round-trip latency and bandwidth-limited
// transfers. The paper's motivation for containers is exactly this
// regime — "decreasing latency when accessed over a wide area network"
// (§2) — which only shows up when each remote operation pays an RTT.
//
// Two shims are provided: WrapDriver makes a storage driver behave like
// a remote storage system reached over a shaped link, and Pace/PacedConn
// shape a net.Conn for transfer experiments. Sleeps are injectable so
// unit tests can count simulated time instead of spending real time.
package simnet

import (
	"net"
	"sync"
	"time"

	"gosrb/internal/storage"
)

// LinkProfile describes one network path.
type LinkProfile struct {
	// RTT is the round-trip time each remote operation pays.
	RTT time.Duration
	// BandwidthBytesPerSec limits streaming throughput; 0 = unlimited.
	BandwidthBytesPerSec int64
}

// TransferTime returns the modelled time to move n bytes over the link
// in a single stream: one RTT plus serialisation at the bandwidth.
func (p LinkProfile) TransferTime(n int64) time.Duration {
	d := p.RTT
	if p.BandwidthBytesPerSec > 0 {
		d += time.Duration(n * int64(time.Second) / p.BandwidthBytesPerSec)
	}
	return d
}

// Clock abstracts waiting so tests can observe simulated time.
type Clock func(time.Duration)

// wanDriver wraps a storage.Driver with link costs.
type wanDriver struct {
	inner storage.Driver
	p     LinkProfile
	sleep Clock
}

// WrapDriver returns a driver that behaves like inner reached across
// the link: every operation pays one RTT, and data streams pay the
// bandwidth cost. A nil sleep uses time.Sleep.
func WrapDriver(inner storage.Driver, p LinkProfile, sleep Clock) storage.Driver {
	if sleep == nil {
		sleep = time.Sleep
	}
	return &wanDriver{inner: inner, p: p, sleep: sleep}
}

func (w *wanDriver) rtt() {
	if w.p.RTT > 0 {
		w.sleep(w.p.RTT)
	}
}

func (w *wanDriver) pace(n int) {
	if w.p.BandwidthBytesPerSec > 0 && n > 0 {
		w.sleep(time.Duration(int64(n) * int64(time.Second) / w.p.BandwidthBytesPerSec))
	}
}

func (w *wanDriver) Create(path string) (storage.WriteFile, error) {
	w.rtt()
	f, err := w.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &wanWriter{inner: f, d: w}, nil
}

func (w *wanDriver) OpenAppend(path string) (storage.WriteFile, error) {
	w.rtt()
	f, err := w.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &wanWriter{inner: f, d: w}, nil
}

func (w *wanDriver) Open(path string) (storage.ReadFile, error) {
	w.rtt()
	f, err := w.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &wanReader{inner: f, d: w}, nil
}

func (w *wanDriver) Stat(path string) (storage.FileInfo, error) {
	w.rtt()
	return w.inner.Stat(path)
}

func (w *wanDriver) Remove(path string) error {
	w.rtt()
	return w.inner.Remove(path)
}

func (w *wanDriver) Rename(oldPath, newPath string) error {
	w.rtt()
	return w.inner.Rename(oldPath, newPath)
}

func (w *wanDriver) List(dir string) ([]storage.FileInfo, error) {
	w.rtt()
	return w.inner.List(dir)
}

func (w *wanDriver) Mkdir(path string) error {
	w.rtt()
	return w.inner.Mkdir(path)
}

type wanWriter struct {
	inner storage.WriteFile
	d     *wanDriver
}

func (w *wanWriter) Write(p []byte) (int, error) {
	n, err := w.inner.Write(p)
	w.d.pace(n)
	return n, err
}

func (w *wanWriter) Close() error { return w.inner.Close() }

func (w *wanWriter) Abort() error { return storage.AbortWrite(w.inner) }

type wanReader struct {
	inner storage.ReadFile
	d     *wanDriver
}

func (r *wanReader) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	r.d.pace(n)
	return n, err
}

func (r *wanReader) ReadAt(p []byte, off int64) (int, error) {
	// A positional read is one remote request: RTT plus streaming.
	r.d.rtt()
	n, err := r.inner.ReadAt(p, off)
	r.d.pace(n)
	return n, err
}

func (r *wanReader) Seek(offset int64, whence int) (int64, error) {
	return r.inner.Seek(offset, whence)
}

func (r *wanReader) Close() error { return r.inner.Close() }

var _ storage.Driver = (*wanDriver)(nil)

// PacedConn shapes writes on a net.Conn to the link bandwidth and
// charges RTT/2 of propagation per direction on the first write.
type PacedConn struct {
	net.Conn
	p     LinkProfile
	sleep Clock
	sent  bool
}

// Pace wraps conn with the link profile. A nil sleep uses time.Sleep.
func Pace(conn net.Conn, p LinkProfile, sleep Clock) *PacedConn {
	if sleep == nil {
		sleep = time.Sleep
	}
	return &PacedConn{Conn: conn, p: p, sleep: sleep}
}

// Write shapes outbound data.
func (c *PacedConn) Write(b []byte) (int, error) {
	if !c.sent {
		c.sent = true
		if c.p.RTT > 0 {
			c.sleep(c.p.RTT / 2)
		}
	}
	if c.p.BandwidthBytesPerSec > 0 && len(b) > 0 {
		c.sleep(time.Duration(int64(len(b)) * int64(time.Second) / c.p.BandwidthBytesPerSec))
	}
	return c.Conn.Write(b)
}

// DelayedConn delivers each write to the peer a fixed latency after it
// was written, without blocking the writer. PacedConn charges
// propagation once per connection, which under-models request/response
// protocols: on a real WAN every round trip pays the link. Wrapping a
// client conn in Delay makes a serial protocol pay the latency per
// request while concurrent in-flight requests overlap their delays —
// the regime the pipelined wire protocol is built for.
type DelayedConn struct {
	net.Conn
	delay time.Duration
	q     chan delayedChunk
	done  chan struct{}
	once  sync.Once

	mu   sync.Mutex
	werr error
}

type delayedChunk struct {
	b  []byte
	at time.Time
}

// Delay wraps conn so each write lands on the peer oneWay later.
// Chunks stay ordered; Close discards undelivered chunks.
func Delay(conn net.Conn, oneWay time.Duration) *DelayedConn {
	c := &DelayedConn{
		Conn:  conn,
		delay: oneWay,
		q:     make(chan delayedChunk, 4096),
		done:  make(chan struct{}),
	}
	go c.pump()
	return c
}

func (c *DelayedConn) pump() {
	for {
		select {
		case ch := <-c.q:
			if d := time.Until(ch.at); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-c.done:
					t.Stop()
					return
				}
			}
			if _, err := c.Conn.Write(ch.b); err != nil {
				c.mu.Lock()
				if c.werr == nil {
					c.werr = err
				}
				c.mu.Unlock()
				return
			}
		case <-c.done:
			return
		}
	}
}

// Write queues b for delayed delivery and returns immediately.
func (c *DelayedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	werr := c.werr
	c.mu.Unlock()
	if werr != nil {
		return 0, werr
	}
	cp := append([]byte(nil), b...)
	select {
	case c.q <- delayedChunk{b: cp, at: time.Now().Add(c.delay)}:
		return len(b), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

// Close stops the delivery pump and closes the underlying conn.
func (c *DelayedConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.Conn.Close()
}
