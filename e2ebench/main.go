// Command e2ebench is gosrb's end-to-end benchmark. It starts a gosrb
// server as a child process, drives it from this process through one
// client.Client, checks every answer, and prints one JSON line:
//
//	e2ebench -workload meta_mix -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the line holds the end-to-end metrics; with -trace 1 a
// run alternating untraced and traced one-second slices gives the
// per-layer metrics and writes the spans under <root>/spans.
// BENCHMARK.json at the repository root describes every workload and
// metric; run.sh builds the binary and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"gosrb/internal/obs"
	"gosrb/internal/wire"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serve(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench serve:", err)
			os.Exit(1)
		}
		return
	}
	var c config
	flag.StringVar(&c.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced window and reports per-layer metrics")
	flag.StringVar(&c.root, "root", ".bench_build", "directory for server state and span files")
	flag.Parse()
	c.trace = *trace == 1
	out, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(c config) (*output, error) {
	if c.seconds <= 0 {
		return nil, errors.New("need -seconds > 0")
	}
	p0, err := newPlan(c.workload, c.seed)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(c.root, "runs", fmt.Sprintf("%s-s%d-%d", c.workload, c.seed, os.Getpid()))
	defer os.RemoveAll(runDir)

	// Set up several times and keep the last server: setup_s is the
	// median, so work moved into set-up shows without one slow start
	// deciding it. Inputs are generated before the clock starts.
	var setups []float64
	var s *session
	for k := 0; k < p0.setups; k++ {
		if s != nil {
			s.close()
		}
		p := p0
		if k > 0 {
			if p, err = newPlan(c.workload, c.seed); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		s, err = setUp(p, filepath.Join(runDir, strconv.Itoa(k)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	d := time.Duration(c.seconds * float64(time.Second))
	before, err := s.takeClientMark()
	if err != nil {
		return nil, err
	}
	w := s.load(streamTimed, d, loopOpts{timed: true, alternate: c.trace})
	after, err := s.takeClientMark()
	if err != nil {
		return nil, err
	}
	verr := s.verifyPuts(&w, 32)
	if verr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: read-back check:", verr)
	}
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %d of %d ops failed, first: %v\n", w.failed, len(w.res), w.firstErr)
	}
	out := &output{
		Correct:   w.wrong == 0 && verr == nil && w.ctlErr == nil,
		Attempted: len(w.res),
		Failed:    w.failed,
	}
	if out.Attempted == 0 {
		return nil, errors.New("no ops ran in the window")
	}
	a := analyze(s, &w, before, after)
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d ops in %.2fs (%d traced), setups %v\n",
		c.workload, c.seed, a.ok, w.elapsed.Seconds(), a.tracedOK, setups)
	a.describe(os.Stderr)
	if c.trace {
		out.Metrics, err = a.perLayer(s)
		if err != nil {
			return nil, err
		}
		if err := writeSpans(c.root, s, &w); err != nil {
			return nil, err
		}
	} else {
		out.Metrics = a.endToEnd(median(setups))
	}
	return out, nil
}

// clientMark is the generator-side record at one instant.
type clientMark struct {
	cpu     int64
	steal   int64 // host CPU time stolen from this machine, in clock ticks
	wire    wireSnap
	retries int64
	stats   wire.OpStatsReply
}

func (s *session) takeClientMark() (clientMark, error) {
	st, err := s.cl.OpStats()
	if err != nil {
		return clientMark{}, fmt.Errorf("opstats: %w", err)
	}
	return clientMark{cpu: cpuMicros(), steal: stealTicks(), wire: s.wire.snap(), retries: s.cl.Retries(), stats: st}, nil
}

// stealTicks reads the machine's cumulative steal time from /proc/stat
// (0 where it is not reported). A virtual machine whose host is busy
// loses CPU this way, and every latency of such a run reads high.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// analysis is a window reduced to the sums the metrics divide.
type analysis struct {
	w             *window
	before, after clientMark
	ok, tracedOK  int
	lat           []int64 // ok ops, ns from due (open loop) or send
	blockLat      [tailBlocks][]int64
	latTraced     []int64
	latUntraced   []int64
	late          []int64 // open loop: send minus due
	payload       int64   // user bytes put plus got
	putBytes      int64
	clientNs      int64 // sum of send-to-done of ok ops
	firstHalfOps  int
}

func analyze(s *session, w *window, before, after clientMark) *analysis {
	a := &analysis{w: w, before: before, after: after}
	half := int64(w.halfAt)
	for i := range w.res {
		r := &w.res[i]
		if s.p.callers == 0 {
			a.late = append(a.late, r.sent-r.due)
		}
		if r.err != nil {
			continue
		}
		a.ok++
		l := r.done - r.due
		a.lat = append(a.lat, l)
		b := min(int(r.due*tailBlocks/int64(w.length)), tailBlocks-1)
		a.blockLat[b] = append(a.blockLat[b], l)
		if r.traced {
			a.tracedOK++
			a.latTraced = append(a.latTraced, l)
		} else {
			a.latUntraced = append(a.latUntraced, l)
		}
		a.payload += r.bytes
		if r.op.kind == opPut || r.op.kind == opBulk {
			a.putBytes += int64(r.op.size)
		}
		a.clientNs += r.done - r.sent
		if r.sent < half {
			a.firstHalfOps++
		}
	}
	return a
}

func (a *analysis) endToEnd(setupS float64) map[string]metric {
	m0, m2 := a.w.marks[0], a.w.marks[2]
	secs := a.w.elapsed.Seconds()
	return map[string]metric{
		"setup_s":              {setupS, "s"},
		"p50_ms":               {pct(a.lat, 0.50) / 1e6, "ms"},
		"p99_ms":               {a.p99() / 1e6, "ms"},
		"ops_per_s":            {float64(a.ok) / secs, "1/s"},
		"goodput_mb_s":         {float64(a.payload) / secs / 1e6, "MB/s"},
		"ok_frac":              {div(float64(a.ok), float64(len(a.w.res))), "frac"},
		"server_cpu_ms_per_op": {div(float64(m2.CPUMicros-m0.CPUMicros)/1e3, float64(a.ok)), "ms/op"},
		"server_peak_rss_mb":   {float64(m2.PeakRSSKB) / 1024, "MiB"},
	}
}

// describe prints the latency of each op kind and the generator's
// lateness, the first things to look at when a latency moves.
func (a *analysis) describe(out io.Writer) {
	var byKind [nKinds][]int64
	for i := range a.w.res {
		if r := &a.w.res[i]; r.err == nil {
			byKind[r.op.kind] = append(byKind[r.op.kind], r.done-r.due)
		}
	}
	for k, v := range byKind {
		if len(v) > 0 {
			fmt.Fprintf(out, "e2ebench:   %-5s n=%-6d p50 %.3f ms  p99 %.3f ms\n",
				kindNames[k], len(v), pct(v, 0.5)/1e6, pct(v, 0.99)/1e6)
		}
	}
	if len(a.late) > 0 {
		late := append([]int64(nil), a.late...)
		fmt.Fprintf(out, "e2ebench:   late  p50 %.3f ms  p99 %.3f ms\n", pct(late, 0.5)/1e6, pct(late, 0.99)/1e6)
	}
	fmt.Fprintf(out, "e2ebench:   steal %d ticks over the window\n", a.after.steal-a.before.steal)
}

// tailBlocks is the number of equal parts of the window whose p99s
// p99_ms takes the median of.
const tailBlocks = 5

// p99 is the median over tailBlocks equal parts of the window of each
// part's p99. One stall then moves one part, not the run's figure,
// while a tail every part shows still sets it.
func (a *analysis) p99() float64 {
	var v []float64
	for _, b := range a.blockLat {
		if len(b) > 0 {
			v = append(v, pct(b, 0.99))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func (a *analysis) perLayer(s *session) (map[string]metric, error) {
	m0, m1, m2 := a.w.marks[0], a.w.marks[1], a.w.marks[2]
	ok, traced := float64(a.ok), float64(a.tracedOK)
	var p50s catP50s
	if err := s.ch.call("layers", &p50s); err != nil {
		return nil, err
	}
	wb, wa := a.before.wire, a.after.wire
	queue, queueUs := phaseDelta(a.before.stats, a.after.stats, obs.PhaseQueueWait)
	disp, dispUs := phaseDelta(a.before.stats, a.after.stats, obs.PhaseDispatch)
	mcatBusy := div(float64(m2.Cat.BusyNs-m0.Cat.BusyNs)/1e3, traced)
	storeBusy := div(float64(m2.Store.BusyNs-m0.Store.BusyNs)/1e3, traced)
	firstHalf, secondHalf := float64(a.firstHalfOps), ok-float64(a.firstHalfOps)
	allocDrift := math.Abs(div(div(float64(m2.AllocBytes-m1.AllocBytes), secondHalf),
		div(float64(m1.AllocBytes-m0.AllocBytes), firstHalf)) - 1)
	return map[string]metric{
		"client.retries_per_kop": {div(float64(a.after.retries-a.before.retries)*1e3, ok), "1/kop"},
		"client.conns_dialed":    {float64(wa.dials - wb.dials), "count"},

		"wire.writes_per_op":          {div(float64(wa.writes-wb.writes), ok), "1/op"},
		"wire.reads_per_op":           {div(float64(wa.reads-wb.reads), ok), "1/op"},
		"wire.bytes_out_per_op":       {div(float64(wa.out-wb.out), ok), "B/op"},
		"wire.bytes_in_per_op":        {div(float64(wa.in-wb.in), ok), "B/op"},
		"wire.bytes_per_payload_byte": {div(float64(wa.out-wb.out+wa.in-wb.in), float64(a.payload)), "ratio"},

		"mcat.calls_per_op":        {div(float64(m2.Cat.Calls-m0.Cat.Calls), ok), "1/op"},
		"mcat.busy_us_per_op":      {mcatBusy, "us/op"},
		"mcat.lookup_p50_us":       {p50s.LookupUs, "us"},
		"mcat.write_p50_us":        {p50s.WriteUs, "us"},
		"mcat.query_p50_us":        {p50s.QueryUs, "us"},
		"mcat.query_hits_per_call": {div(float64(m2.Cat.QueryHits-m0.Cat.QueryHits), float64(m2.Cat.QueryCalls-m0.Cat.QueryCalls)), "1/call"},
		"mcat.errors":              {float64(m2.Cat.Errors - m0.Cat.Errors), "count"},

		"storage.opens_per_op":                {div(float64(m2.Store.Opens-m0.Store.Opens), ok), "1/op"},
		"storage.creates_per_op":              {div(float64(m2.Store.Creates-m0.Store.Creates), ok), "1/op"},
		"storage.busy_us_per_op":              {storeBusy, "us/op"},
		"storage.bytes_read_per_op":           {div(float64(m2.Store.BytesRead-m0.Store.BytesRead), ok), "B/op"},
		"storage.bytes_written_per_user_byte": {div(float64(m2.Store.BytesWritten-m0.Store.BytesWritten), float64(a.putBytes)), "ratio"},
		"storage.errors":                      {float64(m2.Store.Errors - m0.Store.Errors), "count"},

		"server.queue_wait_p50_us": {bucketQuantile(queue, 0.50), "us"},
		"server.queue_wait_p99_us": {bucketQuantile(queue, 0.99), "us"},
		"server.dispatch_p50_us":   {bucketQuantile(disp, 0.50), "us"},
		"server.unattributed_frac": {1 - div(float64(queueUs+dispUs), float64(a.clientNs)/1e3), "frac"},

		"core.self_us_per_op": {div(float64(dispUs), ok) - mcatBusy - storeBusy, "us/op"},

		"runtime.alloc_kb_per_op":   {div(float64(m2.AllocBytes-m0.AllocBytes)/1024, ok), "KiB/op"},
		"runtime.alloc_half_drift":  {allocDrift, "frac"},
		"runtime.gc_cycles_per_kop": {div(float64(m2.GCCycles-m0.GCCycles)*1e3, ok), "1/kop"},
		"runtime.gc_cpu_frac":       {div(m2.GCCPUSec-m0.GCCPUSec, float64(m2.CPUMicros-m0.CPUMicros)/1e6), "frac"},
		"loadgen.late_p99_ms":       {pct(a.late, 0.99) / 1e6, "ms"},
		"loadgen.cpu_ms_per_op":     {div(float64(a.after.cpu-a.before.cpu)/1e3, ok), "ms/op"},
		"trace.overhead_p50_frac":   {div(pct(a.latTraced, 0.5), pct(a.latUntraced, 0.5)) - 1, "frac"},
	}, nil
}

// phaseDelta merges one server phase over every op between two
// telemetry snapshots: bucket counts by upper bound, and total µs.
func phaseDelta(before, after wire.OpStatsReply, phase string) (map[int64]int64, int64) {
	buckets := map[int64]int64{}
	var total int64
	add := func(st wire.OpStatsReply, sign int64) {
		for name, op := range st.Snapshot.Ops {
			fam, _, ph, ok := obs.SplitPhaseOp(name)
			if !ok || fam != "server" || ph != phase {
				continue
			}
			total += sign * op.TotalMicros
			for _, b := range op.Buckets {
				buckets[b.UpperMicros] += sign * b.Count
			}
		}
	}
	add(after, 1)
	add(before, -1)
	return buckets, total
}

// bucketQuantile interpolates the q-quantile in µs from power-of-two
// bucket counts, as obs histograms do.
func bucketQuantile(buckets map[int64]int64, q float64) float64 {
	uppers := make([]int64, 0, len(buckets))
	var total int64
	for u, n := range buckets {
		uppers = append(uppers, u)
		total += n
	}
	if total <= 0 {
		return 0
	}
	sort.Slice(uppers, func(i, j int) bool { return uppers[i] < uppers[j] })
	rank := q * float64(total)
	var cum float64
	for _, u := range uppers {
		n := float64(buckets[u])
		if cum+n >= rank && n > 0 {
			lower := float64(u) / 2
			if u == 1 {
				lower = 0
			}
			return lower + (float64(u)-lower)*(rank-cum)/n
		}
		cum += n
	}
	return float64(uppers[len(uppers)-1])
}

// pct is the nearest-rank q-quantile of v (which it sorts).
func pct(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	k := int(math.Ceil(q*float64(len(v)))) - 1
	return float64(v[max(k, 0)])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the generator's op spans and has the server write
// its layer spans.
func writeSpans(root string, s *session, w *window) error {
	if err := os.MkdirAll(filepath.Join(root, "spans"), 0o755); err != nil {
		return err
	}
	var log spanLog
	run := log.newID()
	base := w.start.UnixNano()
	for i := range w.res {
		if r := &w.res[i]; r.traced {
			log.add(run, kindNames[r.op.kind], base+r.sent, base+r.done)
		}
	}
	if _, err := log.writeFile(spanFile(root, s.p, "client")); err != nil {
		return err
	}
	var dropped int64
	if err := s.ch.call("spans "+spanFile(root, s.p, "server"), &dropped); err != nil {
		return err
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: server dropped %d spans past the %d-span buffer\n", dropped, maxSpans)
	}
	return nil
}
