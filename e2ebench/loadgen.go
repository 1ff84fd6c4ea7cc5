package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/simnet"
)

// ---- the server child ----

// child is the server process and its control pipe.
type child struct {
	cmd  *exec.Cmd
	dir  string
	addr string

	mu  sync.Mutex // one control exchange at a time
	in  io.WriteCloser
	out *bufio.Reader
}

// serverNice is the server child's scheduling niceness.
const serverNice = 10

// startChild runs this binary's serve mode over a fresh dir.
func startChild(dir string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &child{cmd: exec.Command(self, "serve", "-dir", dir), dir: dir}
	c.cmd.Stderr = os.Stderr
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(stdout)
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	// The generator is the measuring instrument. At equal priority the
	// server's idle GC workers, which soak up every idle CPU during a
	// cycle, take the generator's CPU on a small box and its lateness
	// shows up as server latency; a lower priority for the server lets
	// the generator run whenever it is ready.
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, c.cmd.Process.Pid, serverNice); err != nil {
		c.kill()
		return nil, fmt.Errorf("server priority: %w", err)
	}
	var hello struct{ Addr string }
	if err := c.read(&hello); err != nil {
		c.kill()
		return nil, fmt.Errorf("server start: %w", err)
	}
	c.addr = hello.Addr
	return c, nil
}

func (c *child) read(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// call sends one control line and decodes the reply into v.
func (c *child) call(line string, v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := io.WriteString(c.in, line+"\n"); err != nil {
		return fmt.Errorf("control %q: %w", line, err)
	}
	if err := c.read(v); err != nil {
		return fmt.Errorf("control %q: %w", line, err)
	}
	return nil
}

func (c *child) mark() (mark, error) {
	var m mark
	err := c.call("mark", &m)
	return m, err
}

// stop asks the server to shut down and waits for it; a server that
// does not exit within 20 s is killed.
func (c *child) stop() error {
	c.mu.Lock()
	c.in.Close() // EOF on stdin is the shutdown request
	c.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return errors.New("server did not stop; killed")
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// ---- wire counting ----

// wireCounts are the client-side transport counters.
type wireCounts struct {
	dials, writes, reads, out, in atomic.Int64
}

// countConn counts every read and write the client makes on one conn.
type countConn struct {
	net.Conn
	w *wireCounts
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.w.writes.Add(1)
	c.w.out.Add(int64(n))
	return n, err
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.w.reads.Add(1)
	c.w.in.Add(int64(n))
	return n, err
}

type wireSnap struct{ dials, writes, reads, out, in int64 }

func (w *wireCounts) snap() wireSnap {
	return wireSnap{w.dials.Load(), w.writes.Load(), w.reads.Load(), w.out.Load(), w.in.Load()}
}

// ---- one set-up server under load ----

// session is one server child plus the single client driving it.
type session struct {
	p    *plan
	ch   *child
	cl   *client.Client
	wire wireCounts
}

var errWrong = errors.New("wrong output")

// setUp starts a server over dir and brings it to the steady state the
// timed window measures: collections and containers made, population
// seeded, replication windows full, one warm-up second of the load.
func setUp(p *plan, dir string) (*session, error) {
	ch, err := startChild(dir)
	if err != nil {
		return nil, err
	}
	s := &session{p: p, ch: ch}
	if err := s.prepare(); err != nil {
		s.close()
		return nil, fmt.Errorf("setup %s: %w", p.name, err)
	}
	return s, nil
}

func (s *session) prepare() error {
	var err error
	s.cl, err = client.DialWith(s.ch.addr, adminUser, adminPass, s.dial)
	if err != nil {
		return err
	}
	s.cl.SetTimeout(30 * time.Second)
	if err := s.cl.Mkdir(s.p.prefix); err != nil {
		return err
	}
	for _, c := range s.p.colls {
		if err := s.cl.Mkdir(c); err != nil {
			return err
		}
	}
	for _, c := range s.p.containers {
		if _, err := s.cl.MkContainer(c, "vault0"); err != nil {
			return err
		}
	}
	if s.p.pop != nil || s.p.fill {
		t0 := time.Now()
		if err := s.seedPopulation(); err != nil {
			return err
		}
		if s.p.fill {
			if err := s.fillReplog(); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "e2ebench: set-up writes took %.2fs\n", time.Since(t0).Seconds())
		m, err := s.ch.mark()
		if err != nil {
			return err
		}
		if !m.ReplogFull {
			return errors.New("replication windows not full after set-up writes")
		}
	}
	w := s.load(streamWarm, time.Second, loopOpts{})
	if w.failed > 0 {
		return fmt.Errorf("%d of %d warm-up ops failed: %v", w.failed, len(w.res), w.firstErr)
	}
	return nil
}

// dial is the client's transport: TCP, the simulated WAN delay when
// the workload has one, and the wire counters outermost.
func (s *session) dial(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	s.wire.dials.Add(1)
	var c net.Conn = nc
	if s.p.delay > 0 {
		c = simnet.Delay(nc, s.p.delay)
	}
	return &countConn{Conn: c, w: &s.wire}, nil
}

// seedPopulation bulk-ingests the plan's population, four batches in
// flight at a time.
func (s *session) seedPopulation() error {
	const batch = 250
	pop := s.p.pop
	sem := make(chan struct{}, 4)
	errc := make(chan error, (len(pop)+batch-1)/batch)
	var wg sync.WaitGroup
	for lo := 0; lo < len(pop); lo += batch {
		hi := min(lo+batch, len(pop))
		items := make([]client.BulkPut, 0, hi-lo)
		for i := lo; i < hi; i++ {
			sp := pop[i].spec
			data := make([]byte, sp.Size)
			fill(data, mix(uint64(s.p.seed), 0, uint64(i)))
			items = append(items, client.BulkPut{
				Path: sp.Path(), Data: data,
				Opts: client.PutOpts{Resource: "mirror", DataType: sp.DataType, Meta: sp.Meta},
			})
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			st, err := s.cl.BulkPut(items)
			if err == nil {
				for i := range st {
					if err = st[i].Err(); err != nil {
						break
					}
				}
			}
			if err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// fillReplog writes the fill stream, 16 puts in flight, until every
// shard's replication window is full.
func (s *session) fillReplog() error {
	const inflight, check, limit = 16, 256, 200000
	for lo := 0; lo < limit; lo += check {
		ops := make([]op, check)
		for i := range ops {
			ops[i] = s.p.gen(streamFill, lo+i)
		}
		var next atomic.Int64
		errs := make([]error, inflight)
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(ops)) && errs[w] == nil; i = next.Add(1) - 1 {
					_, errs[w] = s.exec(&ops[i])
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		m, err := s.ch.mark()
		if err != nil {
			return err
		}
		if m.ReplogFull {
			return nil
		}
	}
	return errors.New("replication windows still not full after fill limit")
}

func (s *session) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	if s.ch != nil {
		if err := s.ch.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
		}
		os.RemoveAll(s.ch.dir)
	}
}

// exec runs one op and checks the server's answer. It returns the user
// payload bytes moved.
func (s *session) exec(o *op) (int64, error) {
	cl := s.cl
	switch o.kind {
	case opPut:
		data := make([]byte, o.size)
		fill(data, o.content)
		obj, err := cl.Put(o.path, data, client.PutOpts{Resource: o.resource, Container: o.container, Meta: o.meta})
		if err != nil {
			return 0, err
		}
		sum := sha256.Sum256(data)
		if obj.Size != int64(o.size) || obj.Checksum != hex.EncodeToString(sum[:]) {
			return 0, fmt.Errorf("%w: put %s: size %d checksum %q", errWrong, o.path, obj.Size, obj.Checksum)
		}
		return int64(o.size), nil
	case opGet:
		data, err := cl.Get(o.path)
		if err != nil {
			return 0, err
		}
		if len(data) != o.size || crc32.Checksum(data, castagnoli) != o.wantCRC {
			return 0, fmt.Errorf("%w: get %s: %d bytes, bad checksum", errWrong, o.path, len(data))
		}
		return int64(len(data)), nil
	case opStat:
		st, err := cl.Stat(o.path)
		if err != nil {
			return 0, err
		}
		if st.Size != int64(o.size) {
			return 0, fmt.Errorf("%w: stat %s: size %d", errWrong, o.path, st.Size)
		}
		return 0, nil
	case opQuery:
		hits, partial, err := cl.QueryPartial(o.query)
		if err != nil {
			return 0, err
		}
		if len(partial) > 0 || len(hits) != o.wantHits {
			return 0, fmt.Errorf("%w: query %v: %d hits (want %d), partial %v", errWrong, o.query, len(hits), o.wantHits, partial)
		}
		return 0, nil
	case opBulk:
		return s.bulk(o)
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// bulk puts a 32 MiB object, reads it back over parallel streams, reads
// its tail as a resumed restage would, and deletes it.
func (s *session) bulk(o *op) (int64, error) {
	data := s.p.bulkBase
	binary.LittleEndian.PutUint64(data, o.content)
	if _, err := s.cl.Put(o.path, data, client.PutOpts{Resource: o.resource}); err != nil {
		return 0, err
	}
	got, err := s.cl.ParallelGet(o.path, pgetStreams)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, data) {
		return 0, fmt.Errorf("%w: parallel get %s: %d bytes differ", errWrong, o.path, len(got))
	}
	tail, err := s.cl.GetRange(o.path, int64(len(data)-bulkTail), bulkTail)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(tail, data[len(data)-bulkTail:]) {
		return 0, fmt.Errorf("%w: range %s: %d bytes differ", errWrong, o.path, len(tail))
	}
	if err := s.cl.Delete(o.path); err != nil {
		return 0, err
	}
	return int64(2*len(data) + bulkTail), nil
}

// verifyPuts reads back up to n objects put in the window and compares
// them with what was sent, outside the timed window.
func (s *session) verifyPuts(w *window, n int) error {
	for i := range w.res {
		r := &w.res[i]
		if n == 0 {
			break
		}
		if r.op.kind != opPut || r.err != nil {
			continue
		}
		n--
		want := make([]byte, r.op.size)
		fill(want, r.op.content)
		got, err := s.cl.Get(r.op.path)
		if err != nil {
			return fmt.Errorf("read back %s: %w", r.op.path, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%w: read back %s: %d bytes differ", errWrong, r.op.path, len(got))
		}
	}
	return nil
}

// ---- the load loops ----

// result is one op of a window. Times are nanoseconds from the window
// start.
type result struct {
	op              op
	due, sent, done int64
	bytes           int64
	err             error
	traced          bool
}

// window is what one run of a load loop observed.
type window struct {
	res      []result
	start    time.Time
	length   time.Duration // the nominal window
	elapsed  time.Duration // to the last completion, at least the window
	failed   int
	wrong    int
	firstErr error
	marks    []mark        // server marks at start, half time and end (timed runs)
	ctlErr   error         // first failed control exchange with the server
	halfAt   time.Duration // when the half-time mark was taken
}

func (w *window) note(err error) {
	if err != nil && w.ctlErr == nil {
		w.ctlErr = err
	}
}

func (w *window) tally() {
	for i := range w.res {
		if err := w.res[i].err; err != nil {
			w.failed++
			if errors.Is(err, errWrong) {
				w.wrong++
			}
			if w.firstErr == nil {
				w.firstErr = err
			}
		}
	}
	last := time.Duration(0)
	for i := range w.res {
		last = max(last, time.Duration(w.res[i].done))
	}
	w.elapsed = max(w.elapsed, last)
}

// traceSlice is the length of the alternating untraced and traced
// slices of a traced run: even slices untraced, odd slices traced.
const traceSlice = time.Second

// loopOpts says what a load loop records besides the ops. A timed loop
// takes server marks at its start, half time and end; an alternating
// loop switches tracing every traceSlice.
type loopOpts struct{ timed, alternate bool }

func (s *session) setTrace(on bool) error {
	v := "trace 0"
	if on {
		v = "trace 1"
	}
	var ok bool
	return s.ch.call(v, &ok)
}

// traced reports whether an op sent at t (from the window start) falls
// in a traced slice.
func (o loopOpts) traced(t time.Duration) bool {
	return o.alternate && (t/traceSlice)%2 == 1
}

// ctlEvent is a control action at a fixed offset into a window.
type ctlEvent struct {
	at time.Duration
	fn func() error
}

// begin takes the start mark, opens the window and runs its control
// actions — the half-time mark and the trace toggles — on schedule. The
// returned channel yields the first control error once all have run.
func (s *session) begin(w *window, o loopOpts) <-chan error {
	var events []ctlEvent
	if o.timed {
		w.marks = make([]mark, 3)
		w.note(s.mark(&w.marks[0]))
		w.halfAt = w.length / 2
		events = append(events, ctlEvent{w.halfAt, func() error { return s.mark(&w.marks[1]) }})
	}
	if o.alternate {
		for k := 1; time.Duration(k)*traceSlice < w.length; k++ {
			on := k%2 == 1
			events = append(events, ctlEvent{time.Duration(k) * traceSlice, func() error { return s.setTrace(on) }})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	w.start = time.Now()
	done := make(chan error, 1)
	go func() {
		var first error
		for _, ev := range events {
			time.Sleep(time.Until(w.start.Add(ev.at)))
			if err := ev.fn(); err != nil && first == nil {
				first = err
			}
		}
		done <- first
	}()
	return done
}

// openLoop fires stream ops at the plan's rate for d, each at its due
// time whatever the server's backlog, and waits for all of them.
func (s *session) openLoop(stream int, d time.Duration, o loopOpts) window {
	n := int(s.p.rate * d.Seconds())
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.p.gen(stream, i)
	}
	w := window{res: make([]result, n), length: d, elapsed: d}
	ctlDone := s.begin(&w, o)
	interval := time.Duration(float64(time.Second) / s.p.rate)
	var wg sync.WaitGroup
	for i := range ops {
		due := time.Duration(i) * interval
		sleepUntil(w.start.Add(due))
		r := &w.res[i]
		r.op = ops[i]
		r.due = int64(due)
		r.traced = o.traced(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.sent = int64(time.Since(w.start))
			r.bytes, r.err = s.exec(&r.op)
			r.done = int64(time.Since(w.start))
		}()
	}
	wg.Wait()
	w.note(<-ctlDone)
	s.finish(&w, o)
	return w
}

// closedLoop runs the plan's callers for d, each sending its next op
// when the previous one's reply arrives. Latency runs from the send.
func (s *session) closedLoop(stream int, d time.Duration, o loopOpts) window {
	w := window{length: d, elapsed: d}
	var mu sync.Mutex // serialises p.gen and merges results
	next := 0
	ctlDone := s.begin(&w, o)
	var wg sync.WaitGroup
	for c := 0; c < s.p.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []result
			for {
				sent := time.Since(w.start)
				if sent >= d {
					break
				}
				mu.Lock()
				r := result{op: s.p.gen(stream, next), sent: int64(sent), due: int64(sent), traced: o.traced(sent)}
				next++
				mu.Unlock()
				r.bytes, r.err = s.exec(&r.op)
				r.done = int64(time.Since(w.start))
				mine = append(mine, r)
			}
			mu.Lock()
			w.res = append(w.res, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.note(<-ctlDone)
	s.finish(&w, o)
	return w
}

// load runs the plan's loop, open or closed.
func (s *session) load(stream int, d time.Duration, o loopOpts) window {
	if s.p.callers > 0 {
		return s.closedLoop(stream, d, o)
	}
	return s.openLoop(stream, d, o)
}

func (s *session) mark(m *mark) error {
	var err error
	*m, err = s.ch.mark()
	return err
}

// finish switches tracing off, takes the end mark and tallies. A
// control failure fails the whole window: its marks are unusable.
func (s *session) finish(w *window, o loopOpts) {
	if o.alternate {
		w.note(s.setTrace(false))
	}
	if o.timed {
		w.note(s.mark(&w.marks[2]))
	}
	w.tally()
	if w.ctlErr != nil {
		w.failed = len(w.res)
		w.firstErr = w.ctlErr
	}
}

// sleepUntil blocks until t in nanosleep. Go's timers round waits
// below a millisecond up to the netpoller's 1 ms tick, which would put
// up to a millisecond of the generator's own lateness into every
// open-loop latency; nanosleep keeps sends within about 0.1 ms of due.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// cpuMicros is this process's user+sys CPU.
func cpuMicros() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano()/1e3 + ru.Stime.Nano()/1e3
}

// spanFile names a span output of this run.
func spanFile(root string, p *plan, side string) string {
	return filepath.Join(root, "spans", fmt.Sprintf("%s-s%d-%s.jsonl", p.name, p.seed, side))
}
