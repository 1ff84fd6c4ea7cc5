package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the server child, which
// the load loops start as "<self> serve".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serve(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s metrics %v, BENCHMARK.json declares %v", what, got, want)
	}
}

// TestTracedOpenLoop drives a short wan_ingest window (no link delay, no
// replication fill) through a real server child, alternating traced and
// untraced slices, and checks that every declared metric is reported.
func TestTracedOpenLoop(t *testing.T) {
	p, err := newPlan("wan_ingest", 1)
	if err != nil {
		t.Fatal(err)
	}
	p.delay, p.fill = 0, false
	s, err := setUp(p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	before, err := s.takeClientMark()
	if err != nil {
		t.Fatal(err)
	}
	w := s.openLoop(streamTimed, 2500*time.Millisecond, loopOpts{timed: true, alternate: true})
	after, err := s.takeClientMark()
	if err != nil {
		t.Fatal(err)
	}
	if w.failed > 0 {
		t.Fatalf("%d of %d ops failed: %v", w.failed, len(w.res), w.firstErr)
	}
	if err := s.verifyPuts(&w, 8); err != nil {
		t.Fatal(err)
	}
	a := analyze(s, &w, before, after)
	if a.tracedOK == 0 || len(a.latUntraced) == 0 {
		t.Fatalf("%d traced and %d untraced ops; want both", a.tracedOK, len(a.latUntraced))
	}
	layers, err := a.perLayer(s)
	if err != nil {
		t.Fatal(err)
	}
	e2e, want := declared(t)
	sameSet(t, "per-layer", keys(layers), want)
	sameSet(t, "end-to-end", keys(a.endToEnd(1)), e2e)
	if v := layers["mcat.write_p50_us"].Value; v <= 0 {
		t.Fatalf("traced slices timed no catalog writes (write p50 %v)", v)
	}
	if v := layers["storage.creates_per_op"].Value; v < 0.5 {
		t.Fatalf("storage creates per put %v, want about 1", v)
	}
}

// TestClosedLoopBulk runs bulk_stream ops for a moment and checks their
// byte accounting.
func TestClosedLoopBulk(t *testing.T) {
	p, err := newPlan("bulk_stream", 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := setUp(p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	w := s.closedLoop(streamTimed, time.Second, loopOpts{timed: true})
	if w.failed > 0 || len(w.res) == 0 {
		t.Fatalf("%d of %d ops failed: %v", w.failed, len(w.res), w.firstErr)
	}
	for _, r := range w.res {
		if r.bytes != 2*bulkSize+bulkTail {
			t.Fatalf("bulk op moved %d payload bytes, want %d", r.bytes, 2*bulkSize+bulkTail)
		}
	}
}

// TestClosedLoopCallers runs several callers against one plan and checks
// that they share its op sequence without repeating an op.
func TestClosedLoopCallers(t *testing.T) {
	p, err := newPlan("wan_ingest", 3)
	if err != nil {
		t.Fatal(err)
	}
	p.delay, p.fill, p.callers = 0, false, 3
	s, err := setUp(p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	w := s.closedLoop(streamTimed, 1500*time.Millisecond, loopOpts{timed: true, alternate: true})
	if w.failed > 0 || len(w.res) == 0 {
		t.Fatalf("%d of %d ops failed: %v", w.failed, len(w.res), w.firstErr)
	}
	seen := map[string]bool{}
	traced := 0
	for _, r := range w.res {
		if seen[r.op.path] {
			t.Fatalf("op %s sent twice", r.op.path)
		}
		seen[r.op.path] = true
		if r.traced {
			traced++
		}
	}
	if traced == 0 || traced == len(w.res) {
		t.Fatalf("%d of %d ops traced; want the second slice's", traced, len(w.res))
	}
}
