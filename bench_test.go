// Package gosrb_test holds the benchmark harness: one benchmark (or
// sub-benchmark family) per reproduction experiment E1–E10 from
// DESIGN.md §3. The full tables print via `go run ./cmd/srbbench`;
// these benches expose each experiment's core operation to `go test
// -bench` with per-op numbers. WAN-dominated experiments report a
// "sim-ms/op" metric from the simulated clock instead of sleeping.
package gosrb_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/container"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/metadata"
	"gosrb/internal/obs"
	"gosrb/internal/repair"
	"gosrb/internal/replica"
	"gosrb/internal/resilience"
	"gosrb/internal/server"
	"gosrb/internal/simnet"
	"gosrb/internal/sqlengine"
	"gosrb/internal/storage"
	"gosrb/internal/storage/archivefs"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/tlang"
	"gosrb/internal/types"
	"gosrb/internal/workload"
)

// simClock accumulates simulated waits.
type simClock struct{ total time.Duration }

func (c *simClock) sleep(d time.Duration) { c.total += d }

// reportSim attaches the simulated per-op cost as a metric.
func reportSim(b *testing.B, clock *simClock) {
	b.ReportMetric(float64(clock.total.Microseconds())/1000/float64(b.N), "sim-ms/op")
}

// BenchmarkE1ContainerWAN compares per-file WAN access against reading
// members from a locally staged container (paper §2's container claim).
func BenchmarkE1ContainerWAN(b *testing.B) {
	profile := simnet.LinkProfile{RTT: 10 * time.Millisecond, BandwidthBytesPerSec: 10 << 20}
	payload := workload.NewGen(1).Bytes(2048)
	remote := memfs.New()
	storage.WriteAll(remote, "/f", payload)
	w, _ := container.NewWriter(remote, "/seg")
	off, _ := w.Append(payload)

	b.Run("direct", func(b *testing.B) {
		clock := &simClock{}
		wan := simnet.WrapDriver(remote, profile, clock.sleep)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := storage.ReadAll(wan, "/f"); err != nil {
				b.Fatal(err)
			}
		}
		reportSim(b, clock)
	})
	b.Run("container", func(b *testing.B) {
		clock := &simClock{}
		wan := simnet.WrapDriver(remote, profile, clock.sleep)
		local := memfs.New()
		if _, err := storage.Copy(local, "/seg", wan, "/seg"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := container.Read(local, "/seg", off, int64(len(payload))); err != nil {
				b.Fatal(err)
			}
		}
		reportSim(b, clock) // staging cost amortised over b.N member reads
	})
}

// benchCatalogs caches built catalogs: the benchmark framework re-runs
// each sub-benchmark with growing b.N, and rebuilding a 100k-object
// catalog every time would dominate the run.
var benchCatalogs sync.Map // int -> *mcat.Catalog

// benchCatalog builds (or reuses) an n-object catalog.
func benchCatalog(b *testing.B, n int) *mcat.Catalog {
	b.Helper()
	if c, ok := benchCatalogs.Load(n); ok {
		return c.(*mcat.Catalog)
	}
	cat := mcat.New("admin", "sdsc")
	gen := workload.NewGen(7)
	specs := gen.SkySurvey("/lib", n, 16)
	cat.MkCollAll("/lib", "admin")
	for i := 0; i < 16 && i < n; i++ {
		cat.MkCollAll(fmt.Sprintf("/lib/plate%03d", i), "admin")
	}
	for _, s := range specs {
		if _, err := cat.RegisterObject(&types.DataObject{
			Name: s.Name, Collection: s.Collection, Owner: "admin", DataType: s.DataType,
		}); err != nil {
			b.Fatal(err)
		}
		for _, m := range s.Meta {
			cat.AddMeta(s.Path(), types.MetaUser, m)
		}
	}
	benchCatalogs.Store(n, cat)
	return cat
}

// BenchmarkE2CatalogScaling measures equality-query latency at growing
// catalog sizes — "scalable to handle millions of datasets" (§2).
func BenchmarkE2CatalogScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			cat := benchCatalog(b, n)
			q := mcat.Query{Scope: "/lib", Conds: []mcat.Condition{
				{Attr: "survey", Op: "=", Value: "2mass"},
				{Attr: "band", Op: "=", Value: "J"},
			}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cat.RunQuery(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2Ingest measures catalog registration throughput.
func BenchmarkE2Ingest(b *testing.B) {
	cat := mcat.New("admin", "sdsc")
	cat.MkColl("/d", "admin")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.RegisterObject(&types.DataObject{
			Name: fmt.Sprintf("f%09d", i), Collection: "/d", Owner: "admin",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3Failover measures reads while the primary resource is
// down: the automatic redirect to a live replica (§3.4).
func BenchmarkE3Failover(b *testing.B) {
	cat := mcat.New("admin", "sdsc")
	br := core.New(cat, "srb1")
	for _, r := range []string{"r1", "r2"} {
		br.AddPhysicalResource("admin", r, types.ClassFileSystem, "memfs", memfs.New())
	}
	cat.MkColl("/d", "admin")
	br.Ingest("admin", core.IngestOpts{Path: "/d/f", Data: bytes.NewReader(workload.NewGen(1).Bytes(16 << 10)), Resource: "r1"})
	br.Replicate("admin", "/d/f", "r2")
	b.Run("healthy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := br.Get("admin", "/d/f"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("failover", func(b *testing.B) {
		cat.SetResourceOnline("r1", false)
		defer cat.SetResourceOnline("r1", true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := br.Get("admin", "/d/f"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4LoadBalance measures concurrent reads over k replicas with
// both selection policies (§3.2 plus the E4a ablation).
func BenchmarkE4LoadBalance(b *testing.B) {
	payload := workload.NewGen(13).Bytes(4 << 10)
	for _, k := range []int{1, 2, 4} {
		for _, policy := range []replica.Policy{replica.FirstAlive, replica.RoundRobin} {
			name := fmt.Sprintf("replicas=%d/first-alive", k)
			if policy == replica.RoundRobin {
				name = fmt.Sprintf("replicas=%d/round-robin", k)
			}
			b.Run(name, func(b *testing.B) {
				cat := mcat.New("admin", "sdsc")
				br := core.New(cat, "srb1")
				for i := 0; i < k; i++ {
					br.AddPhysicalResource("admin", fmt.Sprintf("r%d", i), types.ClassFileSystem, "memfs", memfs.New())
				}
				cat.MkColl("/d", "admin")
				br.Ingest("admin", core.IngestOpts{Path: "/d/f", Data: bytes.NewReader(payload), Resource: "r0"})
				for i := 1; i < k; i++ {
					br.Replicate("admin", "/d/f", fmt.Sprintf("r%d", i))
				}
				br.Replicas().SetPolicy(policy)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := br.Get("admin", "/d/f"); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// fedRig wires a two-server zone for the federation benches.
type fedRig struct {
	s1, s2       *server.Server
	addr1, addr2 string
}

func newFedRig(b *testing.B, mode server.FederationMode, payload []byte) *fedRig {
	b.Helper()
	cat := mcat.New("admin", "sdsc")
	b1 := core.New(cat, "srb1")
	b2 := core.New(cat, "srb2")
	b1.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs", memfs.New())
	b2.AddPhysicalResource("admin", "disk2", types.ClassFileSystem, "memfs", memfs.New())
	cat.MkColl("/d", "admin")
	if _, err := b2.Ingest("admin", core.IngestOpts{Path: "/d/f", Data: bytes.NewReader(payload), Resource: "disk2"}); err != nil {
		b.Fatal(err)
	}
	authn := auth.New()
	authn.Register("admin", "pw")
	s1 := server.New(b1, authn, mode)
	s2 := server.New(b2, authn, mode)
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s1.AddPeer("srb2", addr2, "zs")
	s2.AddPeer("srb1", addr1, "zs")
	b.Cleanup(func() { s1.Close(); s2.Close() })
	return &fedRig{s1: s1, s2: s2, addr1: addr1, addr2: addr2}
}

// BenchmarkE5Federation measures gets against the owner directly, via
// a proxying peer, and after a redirect (§3.1; E5a ablation).
func BenchmarkE5Federation(b *testing.B) {
	payload := workload.NewGen(17).Bytes(64 << 10)
	cases := []struct {
		name string
		mode server.FederationMode
		via  func(*fedRig) string
	}{
		{"direct", server.Proxy, func(r *fedRig) string { return r.addr2 }},
		{"proxy", server.Proxy, func(r *fedRig) string { return r.addr1 }},
		{"redirect", server.Redirect, func(r *fedRig) string { return r.addr1 }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			rig := newFedRig(b, tc.mode, payload)
			cl, err := client.Dial(tc.via(rig), "admin", "pw")
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Get("/d/f"); err != nil { // warm (redirect hops here)
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Get("/d/f"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6ParallelTransfer measures multi-stream bulk retrieval of a
// 4 MiB object over loopback TCP.
func BenchmarkE6ParallelTransfer(b *testing.B) {
	size := 4 << 20
	payload := workload.NewGen(19).Bytes(size)
	rig := newFedRig(b, server.Proxy, payload)
	for _, streams := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			cl, err := client.Dial(rig.addr2, "admin", "pw")
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := cl.ParallelGet("/d/f", streams)
				if err != nil {
					b.Fatal(err)
				}
				if len(data) != size {
					b.Fatal("short read")
				}
			}
		})
	}
}

// BenchmarkE7SyncIngest measures ingest into logical resources of
// growing width, reporting the simulated synchronous-replication cost.
func BenchmarkE7SyncIngest(b *testing.B) {
	payload := workload.NewGen(3).Bytes(64 << 10)
	profile := simnet.LinkProfile{RTT: 5 * time.Millisecond, BandwidthBytesPerSec: 50 << 20}
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("members=%d", k), func(b *testing.B) {
			cat := mcat.New("admin", "sdsc")
			br := core.New(cat, "srb1")
			clock := &simClock{}
			names := make([]string, k)
			for i := 0; i < k; i++ {
				names[i] = fmt.Sprintf("disk%d", i)
				wan := simnet.WrapDriver(memfs.New(), profile, clock.sleep)
				br.AddPhysicalResource("admin", names[i], types.ClassFileSystem, "memfs", wan)
			}
			target := names[0]
			if k > 1 {
				br.AddLogicalResource("admin", "lr", names)
				target = "lr"
			}
			cat.MkColl("/d", "admin")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := br.Ingest("admin", core.IngestOpts{
					Path: fmt.Sprintf("/d/f%09d", i), Data: bytes.NewReader(payload), Resource: target,
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportSim(b, clock)
		})
	}
}

// BenchmarkE8MetadataQuery measures the MySRB operator set on a 50k
// catalog: indexed equality vs scanning comparisons (§6).
func BenchmarkE8MetadataQuery(b *testing.B) {
	cat := benchCatalog(b, 50000)
	cases := []struct {
		name  string
		conds []mcat.Condition
	}{
		{"eq-indexed", []mcat.Condition{{Attr: "survey", Op: "=", Value: "2mass"}}},
		{"eq-and-eq", []mcat.Condition{{Attr: "survey", Op: "=", Value: "2mass"}, {Attr: "band", Op: "=", Value: "J"}}},
		{"range-scan", []mcat.Condition{{Attr: "mag", Op: ">", Value: "12"}}},
		{"like-scan", []mcat.Condition{{Attr: "telescope", Op: "like", Value: "%palomar%"}}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			q := mcat.Query{Scope: "/lib", Conds: tc.conds}
			for i := 0; i < b.N; i++ {
				if _, err := cat.RunQuery(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9TLang measures T-language extraction and the built-in
// result templates (§5).
func BenchmarkE9TLang(b *testing.B) {
	gen := workload.NewGen(9)
	spec := gen.SkySurvey("/lib", 1, 1)[0]
	header := gen.FITSHeader(spec)
	reg := metadata.NewRegistry()
	b.Run("extract-fits", func(b *testing.B) {
		b.SetBytes(int64(len(header)))
		for i := 0; i < b.N; i++ {
			if _, err := reg.Extract("fits image", "fits-cards", bytes.NewReader(header)); err != nil {
				b.Fatal(err)
			}
		}
	})
	res := &sqlengine.Result{Columns: []string{"survey", "name", "mag"}}
	for i := 0; i < 1000; i++ {
		res.Rows = append(res.Rows, sqlengine.Row{
			sqlengine.String("2mass"), sqlengine.String(fmt.Sprintf("obj%06d", i)), sqlengine.Number(float64(i % 17)),
		})
	}
	for _, tpl := range []string{"HTMLREL", "HTMLNEST", "XMLREL"} {
		b.Run("render-"+tpl, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sb bytes.Buffer
				if err := tlang.RenderBuiltin(tpl, &sb, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10ArchiveCache measures archive reads cold (staging) and
// from a cache replica (§5's pin/purge machinery keeps the latter).
func BenchmarkE10ArchiveCache(b *testing.B) {
	cat := mcat.New("admin", "sdsc")
	br := core.New(cat, "srb1")
	clock := &simClock{}
	arch := archivefs.New(archivefs.Config{StageLatency: 50 * time.Millisecond, StageCapacity: 1})
	arch.SetSleep(clock.sleep)
	br.AddPhysicalResource("admin", "tape", types.ClassArchive, "archivefs", arch)
	br.AddPhysicalResource("admin", "cache1", types.ClassCache, "memfs", memfs.New())
	cat.MkColl("/a", "admin")
	gen := workload.NewGen(4)
	// Two objects so a capacity-1 stage cache always misses.
	br.Ingest("admin", core.IngestOpts{Path: "/a/o1", Data: bytes.NewReader(gen.Bytes(8 << 10)), Resource: "tape"})
	br.Ingest("admin", core.IngestOpts{Path: "/a/o2", Data: bytes.NewReader(gen.Bytes(8 << 10)), Resource: "tape"})
	b.Run("archive-cold", func(b *testing.B) {
		clock.total = 0
		for i := 0; i < b.N; i++ {
			p := "/a/o1"
			if i%2 == 1 {
				p = "/a/o2"
			}
			if _, err := br.Get("admin", p); err != nil {
				b.Fatal(err)
			}
		}
		reportSim(b, clock)
	})
	b.Run("cache-replica", func(b *testing.B) {
		br.Replicate("admin", "/a/o1", "cache1")
		clock.total = 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := br.Replicas().ReadAll("/a/o1", "cache1"); err != nil {
				b.Fatal(err)
			}
		}
		reportSim(b, clock)
	})
}

// BenchmarkE1aContainerGranularity is the member-size ablation.
func BenchmarkE1aContainerGranularity(b *testing.B) {
	gen := workload.NewGen(2)
	for _, size := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("member=%dB", size), func(b *testing.B) {
			d := memfs.New()
			w, _ := container.NewWriter(d, "/seg")
			off, _ := w.Append(gen.Bytes(size))
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := container.Read(d, "/seg", off, int64(size)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireRoundTrip isolates the protocol cost: an authenticated
// stat round trip on loopback.
func BenchmarkWireRoundTrip(b *testing.B) {
	rig := newFedRig(b, server.Proxy, []byte("x"))
	cl, err := client.Dial(rig.addr2, "admin", "pw")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Stat("/d/f"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentBrokerOps drives mixed metadata/data load through
// one broker to expose catalog lock contention.
func BenchmarkConcurrentBrokerOps(b *testing.B) {
	cat := mcat.New("admin", "sdsc")
	br := core.New(cat, "srb1")
	br.AddPhysicalResource("admin", "r1", types.ClassFileSystem, "memfs", memfs.New())
	cat.MkColl("/d", "admin")
	payload := workload.NewGen(5).Bytes(1 << 10)
	for i := 0; i < 100; i++ {
		br.Ingest("admin", core.IngestOpts{
			Path: fmt.Sprintf("/d/f%03d", i), Data: bytes.NewReader(payload), Resource: "r1",
			Meta: []types.AVU{{Name: "i", Value: fmt.Sprint(i % 10)}},
		})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			switch i % 3 {
			case 0:
				br.Get("admin", fmt.Sprintf("/d/f%03d", i%100))
			case 1:
				br.Query("admin", mcat.Query{Scope: "/d", Conds: []mcat.Condition{{Attr: "i", Op: "=", Value: "3"}}})
			case 2:
				br.List("admin", "/d")
			}
			i++
		}
	})
}

// obsBenchBroker builds a one-disk broker preloaded with objects for
// the instrumentation-overhead benchmark. instrumented=false turns the
// registry off *before* mounting, so the baseline broker records no op
// latencies and its driver is not wrapped in the byte-counting
// decorator — the true zero-telemetry cost.
func obsBenchBroker(tb testing.TB, instrumented bool, objects int, payload []byte) *core.Broker {
	tb.Helper()
	cat := mcat.New("admin", "sdsc")
	br := core.New(cat, "srb1")
	if !instrumented {
		br.SetMetrics(nil)
	}
	br.AddPhysicalResource("admin", "r1", types.ClassFileSystem, "memfs", memfs.New())
	cat.MkColl("/d", "admin")
	for i := 0; i < objects; i++ {
		if _, err := br.Ingest("admin", core.IngestOpts{
			Path: fmt.Sprintf("/d/f%03d", i), Data: bytes.NewReader(payload), Resource: "r1",
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return br
}

// obsBenchOp runs one iteration of the measured op: a Get, or for the
// put path a Reingest (rewrite-in-place, so the catalog stays the same
// size across b.N iterations).
func obsBenchOp(br *core.Broker, put bool, i, objects int, payload []byte) error {
	path := fmt.Sprintf("/d/f%03d", i%objects)
	if put {
		return br.Reingest("admin", path, payload)
	}
	_, err := br.Get("admin", path)
	return err
}

// BenchmarkObsOverhead compares broker Put/Get latency with telemetry
// on (the default registry) against the SetMetrics(nil) baseline. The
// delta is the full cost of this PR's instrumentation: op histograms,
// cached op handles and the storage byte-counting decorator.
func BenchmarkObsOverhead(b *testing.B) {
	payload := workload.NewGen(21).Bytes(4 << 10)
	const objects = 64
	for _, op := range []struct {
		name string
		put  bool
	}{{"get", false}, {"put", true}} {
		for _, mode := range []struct {
			name  string
			instr bool
		}{{"instrumented", true}, {"baseline", false}} {
			b.Run(op.name+"/"+mode.name, func(b *testing.B) {
				br := obsBenchBroker(b, mode.instr, objects, payload)
				b.SetBytes(int64(len(payload)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := obsBenchOp(br, op.put, i, objects, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestObsOverheadReport measures the same four cells with
// testing.Benchmark and writes BENCH_obs.json so the overhead is
// tracked from this PR onward. Gated behind BENCH_OBS=1 (the
// Makefile's bench-obs target) to keep the normal test run fast.
func TestObsOverheadReport(t *testing.T) {
	if os.Getenv("BENCH_OBS") == "" {
		t.Skip("set BENCH_OBS=1 to emit BENCH_obs.json")
	}
	payload := workload.NewGen(21).Bytes(4 << 10)
	const objects = 64
	// Best-of-3 rounds per cell: the minimum is the stable estimator for
	// a microbenchmark — scheduler noise only ever inflates a round.
	measure := func(instr, put bool) float64 {
		br := obsBenchBroker(t, instr, objects, payload)
		best := 0.0
		for round := 0; round < 3; round++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := obsBenchOp(br, put, i, objects, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
			if v := float64(res.NsPerOp()); round == 0 || v < best {
				best = v
			}
		}
		return best
	}
	type cell struct {
		InstrumentedNsPerOp float64 `json:"instrumented_ns_per_op"`
		BaselineNsPerOp     float64 `json:"baseline_ns_per_op"`
		OverheadPct         float64 `json:"overhead_pct"`
	}
	mk := func(put bool) cell {
		instr, base := measure(true, put), measure(false, put)
		c := cell{InstrumentedNsPerOp: instr, BaselineNsPerOp: base}
		if base > 0 {
			c.OverheadPct = (instr - base) / base * 100
		}
		return c
	}
	report := struct {
		Benchmark    string `json:"benchmark"`
		PayloadBytes int    `json:"payload_bytes"`
		Objects      int    `json:"objects"`
		Get          cell   `json:"get"`
		Put          cell   `json:"put"`
	}{
		Benchmark:    "broker-obs-overhead",
		PayloadBytes: len(payload),
		Objects:      objects,
		Get:          mk(false),
		Put:          mk(true),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("get: %.0f ns instrumented vs %.0f ns baseline (%.2f%% overhead)",
		report.Get.InstrumentedNsPerOp, report.Get.BaselineNsPerOp, report.Get.OverheadPct)
	t.Logf("put: %.0f ns instrumented vs %.0f ns baseline (%.2f%% overhead)",
		report.Put.InstrumentedNsPerOp, report.Put.BaselineNsPerOp, report.Put.OverheadPct)
}

// TestObsOverheadGate re-measures the instrumentation overhead and
// fails when it regressed more than 5 percentage points past the
// committed BENCH_obs.json baseline — the `make bench-obs-gate`
// regression fence. Gated behind BENCH_OBS_GATE=1; skips when no
// baseline has been recorded yet.
func TestObsOverheadGate(t *testing.T) {
	if os.Getenv("BENCH_OBS_GATE") == "" {
		t.Skip("set BENCH_OBS_GATE=1 to check against BENCH_obs.json")
	}
	raw, err := os.ReadFile("BENCH_obs.json")
	if err != nil {
		t.Skipf("no baseline: %v (run `make bench-obs` first)", err)
	}
	var baseline struct {
		Get struct {
			OverheadPct float64 `json:"overhead_pct"`
		} `json:"get"`
		Put struct {
			OverheadPct float64 `json:"overhead_pct"`
		} `json:"put"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("unreadable BENCH_obs.json: %v", err)
	}
	payload := workload.NewGen(21).Bytes(4 << 10)
	const objects = 64
	// Pairwise rounds: each round times the instrumented and the bare
	// broker back to back and the gate keeps the *lowest* overhead seen.
	// Measuring the two cells in separate phases lets one background
	// load burst inflate a whole phase and fake a regression; a paired
	// round exposes both cells to the same interference, and the min
	// over rounds is the run least distorted by the scheduler.
	run := func(br *core.Broker, put bool) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := obsBenchOp(br, put, i, objects, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.NsPerOp())
	}
	const slackPct = 5.0
	for _, op := range []struct {
		name     string
		put      bool
		baseline float64
	}{{"get", false, baseline.Get.OverheadPct}, {"put", true, baseline.Put.OverheadPct}} {
		instrBr := obsBenchBroker(t, true, objects, payload)
		baseBr := obsBenchBroker(t, false, objects, payload)
		overhead := 0.0
		for round := 0; round < 5; round++ {
			instr, base := run(instrBr, op.put), run(baseBr, op.put)
			v := 0.0
			if base > 0 {
				v = (instr - base) / base * 100
			}
			if round == 0 || v < overhead {
				overhead = v
			}
		}
		// A negative recorded baseline is scheduler luck at report time,
		// not a real speedup; clamping to 0 keeps the fence at "no more
		// than slack over free" instead of demanding negative overhead.
		allowed := op.baseline
		if allowed < 0 {
			allowed = 0
		}
		t.Logf("%s: %.2f%% overhead now vs %.2f%% at baseline", op.name, overhead, op.baseline)
		if overhead > allowed+slackPct {
			t.Errorf("%s instrumentation overhead %.2f%% exceeds baseline %.2f%% + %.1f points",
				op.name, overhead, allowed, slackPct)
		}
	}
}

// replBenchRig builds a one-broker rig with a 3-member logical
// resource whose members sit behind a simulated 2ms-RTT link (the
// regime where synchronous fan-out hurts), plus a running repair
// engine draining the deferred fan-out. policy "" is the sync default.
func replBenchRig(tb testing.TB, policy string) (*core.Broker, *mcat.Catalog, func()) {
	tb.Helper()
	cat := mcat.New("admin", "sdsc")
	br := core.New(cat, "srb1")
	profile := simnet.LinkProfile{RTT: 2 * time.Millisecond}
	names := []string{"w1", "w2", "w3"}
	for _, n := range names {
		if err := br.AddPhysicalResource("admin", n, types.ClassFileSystem, "memfs",
			simnet.WrapDriver(memfs.New(), profile, nil)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := br.AddLogicalResourcePolicy("admin", "lr", names, policy); err != nil {
		tb.Fatal(err)
	}
	cat.MkColl("/d", "admin")
	eng := repair.New(repair.Config{
		Workers: 4,
		Queue:   cat,
		Exec:    br.RunRepairTask,
		Metrics: br.Metrics(),
		Backoff: resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Poll:    time.Millisecond,
		Server:  "srb1",
		Seed:    1,
	})
	br.SetRepair(eng)
	eng.Start()
	return br, cat, eng.Stop
}

// BenchmarkRepairAsyncIngest compares client-visible ingest latency
// onto a 3-member logical resource under the sync default (the write
// path pays every member's RTT) against async:1 (one replica lands
// synchronously, the repair engine fans out the rest off the clock).
func BenchmarkRepairAsyncIngest(b *testing.B) {
	payload := workload.NewGen(23).Bytes(8 << 10)
	for _, tc := range []struct{ name, policy string }{
		{"sync", ""},
		{"async-1", "async:1"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			br, _, stop := replBenchRig(b, tc.policy)
			defer stop()
			n := 0
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n++
				if _, err := br.Ingest("admin", core.IngestOpts{
					Path: fmt.Sprintf("/d/f%09d", n), Data: bytes.NewReader(payload), Resource: "lr",
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRepairBenchReport measures the sync-vs-async ingest cells with
// testing.Benchmark and writes BENCH_repair.json (the Makefile's
// bench-repair target, gated behind BENCH_REPAIR=1). The async write
// path must be at least 1.5x faster than the synchronous 3-way
// fan-out, and the report also records how long the repair engine took
// to drain the deferred replicas afterwards — the cost did not vanish,
// it moved off the client's clock.
func TestRepairBenchReport(t *testing.T) {
	if os.Getenv("BENCH_REPAIR") == "" {
		t.Skip("set BENCH_REPAIR=1 to emit BENCH_repair.json")
	}
	payload := workload.NewGen(23).Bytes(8 << 10)
	var drainMS float64
	measure := func(policy string) float64 {
		best := 0.0
		for round := 0; round < 3; round++ {
			br, cat, stop := replBenchRig(t, policy)
			n := 0
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					n++
					if _, err := br.Ingest("admin", core.IngestOpts{
						Path: fmt.Sprintf("/d/f%09d", n), Data: bytes.NewReader(payload), Resource: "lr",
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
			if policy != "" {
				drainStart := time.Now()
				for {
					if n, _ := cat.RepairBacklog(); n == 0 {
						break
					}
					time.Sleep(time.Millisecond)
				}
				drainMS = float64(time.Since(drainStart).Microseconds()) / 1000
			}
			stop()
			if v := float64(res.NsPerOp()); round == 0 || v < best {
				best = v
			}
		}
		return best
	}
	syncNs := measure("")
	asyncNs := measure("async:1")
	speedup := 0.0
	if asyncNs > 0 {
		speedup = syncNs / asyncNs
	}
	report := struct {
		Benchmark    string  `json:"benchmark"`
		PayloadBytes int     `json:"payload_bytes"`
		Members      int     `json:"members"`
		SyncNsPerOp  float64 `json:"sync_ns_per_op"`
		AsyncNsPerOp float64 `json:"async_ns_per_op"`
		Speedup      float64 `json:"speedup"`
		AsyncDrainMS float64 `json:"async_drain_ms"`
	}{
		Benchmark:    "async-replication-ingest",
		PayloadBytes: len(payload),
		Members:      3,
		SyncNsPerOp:  syncNs,
		AsyncNsPerOp: asyncNs,
		Speedup:      speedup,
		AsyncDrainMS: drainMS,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_repair.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("sync %.0f ns/op vs async %.0f ns/op: %.2fx speedup (drain %.1f ms)",
		syncNs, asyncNs, speedup, drainMS)
	if speedup < 1.5 {
		t.Errorf("async ingest speedup %.2fx, want >= 1.5x over sync fan-out", speedup)
	}
}

// gridBenchCaptures polls the registry the way the grid console does —
// a rollup capture plus a 1m window query per tick — at an interval far
// more aggressive than the 10s production default, so the measured
// overhead is a ceiling on what the console costs a busy broker.
func gridBenchCaptures(reg *obs.Registry, every time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				reg.CaptureRollup(time.Now())
				reg.Window(time.Minute)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// BenchmarkGridRollup isolates the windowed-telemetry primitives on a
// warm registry: one periodic capture, and one 5m window query (the
// /metrics?window= and `srb top` read path).
func BenchmarkGridRollup(b *testing.B) {
	reg := obs.NewRegistry()
	for i := 0; i < 32; i++ {
		reg.Op(fmt.Sprintf("server.op%02d", i)).Observe(time.Millisecond, nil)
		reg.Counter(fmt.Sprintf("c%02d", i)).Inc()
	}
	b.Run("capture", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.CaptureRollup(time.Now())
		}
	})
	b.Run("window", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.Window(5 * time.Minute)
		}
	})
}

// gridBenchMeasure times broker gets bare vs with the console polling
// loop running, best-of-rounds.
func gridBenchMeasure(tb testing.TB, rounds int, polling bool, payload []byte) float64 {
	tb.Helper()
	const objects = 64
	br := obsBenchBroker(tb, true, objects, payload)
	if polling {
		defer gridBenchCaptures(br.Metrics(), 2*time.Millisecond)()
	}
	best := 0.0
	for round := 0; round < rounds; round++ {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := obsBenchOp(br, false, i, objects, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		if v := float64(res.NsPerOp()); round == 0 || v < best {
			best = v
		}
	}
	return best
}

// TestGridBenchReport measures what the grid console costs the hot
// path: broker Get latency with a 2ms capture+window polling loop (vs
// idle telemetry), plus the raw capture and window-query costs. Writes
// BENCH_grid.json (the Makefile's bench-grid target, BENCH_GRID=1).
func TestGridBenchReport(t *testing.T) {
	if os.Getenv("BENCH_GRID") == "" {
		t.Skip("set BENCH_GRID=1 to emit BENCH_grid.json")
	}
	payload := workload.NewGen(29).Bytes(4 << 10)
	plain := gridBenchMeasure(t, 3, false, payload)
	polled := gridBenchMeasure(t, 3, true, payload)
	overhead := 0.0
	if plain > 0 {
		overhead = (polled - plain) / plain * 100
	}
	reg := obs.NewRegistry()
	for i := 0; i < 32; i++ {
		reg.Op(fmt.Sprintf("server.op%02d", i)).Observe(time.Millisecond, nil)
	}
	capRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.CaptureRollup(time.Now())
		}
	})
	winRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.Window(5 * time.Minute)
		}
	})
	report := struct {
		Benchmark      string  `json:"benchmark"`
		PayloadBytes   int     `json:"payload_bytes"`
		PollEveryMS    float64 `json:"poll_every_ms"`
		PlainNsPerOp   float64 `json:"plain_ns_per_op"`
		PolledNsPerOp  float64 `json:"polled_ns_per_op"`
		OverheadPct    float64 `json:"overhead_pct"`
		CaptureNsPerOp float64 `json:"capture_ns_per_op"`
		WindowNsPerOp  float64 `json:"window_ns_per_op"`
	}{
		Benchmark:      "grid-rollup-overhead",
		PayloadBytes:   len(payload),
		PollEveryMS:    2,
		PlainNsPerOp:   plain,
		PolledNsPerOp:  polled,
		OverheadPct:    overhead,
		CaptureNsPerOp: float64(capRes.NsPerOp()),
		WindowNsPerOp:  float64(winRes.NsPerOp()),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_grid.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("get: %.0f ns idle vs %.0f ns under 2ms console polling (%.2f%% overhead); capture %.0f ns, window %.0f ns",
		plain, polled, overhead, report.CaptureNsPerOp, report.WindowNsPerOp)
}

// TestGridBenchGate re-measures the console-polling overhead and fails
// when it regressed more than 5 percentage points past the committed
// BENCH_grid.json baseline — the `make bench-grid-gate` fence riding
// `make check`. Gated behind BENCH_GRID_GATE=1; skips with no baseline.
func TestGridBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GRID_GATE") == "" {
		t.Skip("set BENCH_GRID_GATE=1 to check against BENCH_grid.json")
	}
	raw, err := os.ReadFile("BENCH_grid.json")
	if err != nil {
		t.Skipf("no baseline: %v (run `make bench-grid` first)", err)
	}
	var baseline struct {
		OverheadPct float64 `json:"overhead_pct"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("unreadable BENCH_grid.json: %v", err)
	}
	payload := workload.NewGen(29).Bytes(4 << 10)
	// Pairwise rounds, same reasoning as the obs gate: time the idle and
	// the polled broker back to back each round so one background load
	// burst cannot inflate a whole phase, and keep the round with the
	// lowest overhead — the one least distorted by the scheduler.
	const objects = 64
	plainBr := obsBenchBroker(t, true, objects, payload)
	polledBr := obsBenchBroker(t, true, objects, payload)
	defer gridBenchCaptures(polledBr.Metrics(), 2*time.Millisecond)()
	run := func(br *core.Broker) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := obsBenchOp(br, false, i, objects, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.NsPerOp())
	}
	overhead := 0.0
	for round := 0; round < 5; round++ {
		plain, polled := run(plainBr), run(polledBr)
		v := 0.0
		if plain > 0 {
			v = (polled - plain) / plain * 100
		}
		if round == 0 || v < overhead {
			overhead = v
		}
	}
	const slackPct = 5.0
	// A sub-zero baseline is measurement noise (polling happened to win
	// a round); the fence floor is "no overhead", not "negative".
	allowed := baseline.OverheadPct
	if allowed < 0 {
		allowed = 0
	}
	t.Logf("console-polling overhead %.2f%% now vs %.2f%% at baseline", overhead, baseline.OverheadPct)
	if overhead > allowed+slackPct {
		t.Errorf("rollup overhead %.2f%% exceeds baseline %.2f%% + %.1f points",
			overhead, allowed, slackPct)
	}
}

// flightBenchFlushes runs the flight recorder's journal flush loop at
// an aggressive cadence (vs the 30s production default): one rollup
// capture plus one incremental journal flush per tick, against a real
// on-disk TelemetryStore, so the measured overhead is a ceiling on what
// durable telemetry costs a busy broker.
func flightBenchFlushes(tb testing.TB, reg *obs.Registry, every time.Duration) (stop func()) {
	tb.Helper()
	telem, err := obs.OpenTelemetryStore(tb.TempDir(), "bench", time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				reg.CaptureRollup(time.Now())
				if err := telem.Flush(reg, nil, time.Now()); err != nil {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		telem.Close(reg, nil, time.Now())
	}
}

// TestFlightBenchReport measures what durable telemetry costs the hot
// path: broker Get latency with a 2ms capture+journal-flush loop (vs
// idle telemetry). Writes BENCH_flight.json (the Makefile's
// bench-flight target, BENCH_FLIGHT=1).
func TestFlightBenchReport(t *testing.T) {
	if os.Getenv("BENCH_FLIGHT") == "" {
		t.Skip("set BENCH_FLIGHT=1 to emit BENCH_flight.json")
	}
	payload := workload.NewGen(31).Bytes(4 << 10)
	const objects = 64
	measure := func(flushing bool) float64 {
		br := obsBenchBroker(t, true, objects, payload)
		if flushing {
			defer flightBenchFlushes(t, br.Metrics(), 2*time.Millisecond)()
		}
		best := 0.0
		for round := 0; round < 3; round++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := obsBenchOp(br, false, i, objects, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
			if v := float64(res.NsPerOp()); round == 0 || v < best {
				best = v
			}
		}
		return best
	}
	plain := measure(false)
	flushed := measure(true)
	overhead := 0.0
	if plain > 0 {
		overhead = (flushed - plain) / plain * 100
	}
	report := struct {
		Benchmark      string  `json:"benchmark"`
		PayloadBytes   int     `json:"payload_bytes"`
		FlushEveryMS   float64 `json:"flush_every_ms"`
		PlainNsPerOp   float64 `json:"plain_ns_per_op"`
		FlushedNsPerOp float64 `json:"flushed_ns_per_op"`
		OverheadPct    float64 `json:"overhead_pct"`
	}{
		Benchmark:      "flight-flush-overhead",
		PayloadBytes:   len(payload),
		FlushEveryMS:   2,
		PlainNsPerOp:   plain,
		FlushedNsPerOp: flushed,
		OverheadPct:    overhead,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_flight.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("get: %.0f ns idle vs %.0f ns under 2ms journal flushing (%.2f%% overhead)",
		plain, flushed, overhead)
}

// TestFlightBenchGate re-measures the journal-flush overhead and fails
// when it regressed more than 5 percentage points past the committed
// BENCH_flight.json baseline — the `make bench-flight-gate` fence
// riding `make check`. Gated behind BENCH_FLIGHT_GATE=1; skips with no
// baseline.
func TestFlightBenchGate(t *testing.T) {
	if os.Getenv("BENCH_FLIGHT_GATE") == "" {
		t.Skip("set BENCH_FLIGHT_GATE=1 to check against BENCH_flight.json")
	}
	raw, err := os.ReadFile("BENCH_flight.json")
	if err != nil {
		t.Skipf("no baseline: %v (run `make bench-flight` first)", err)
	}
	var baseline struct {
		OverheadPct float64 `json:"overhead_pct"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("unreadable BENCH_flight.json: %v", err)
	}
	payload := workload.NewGen(31).Bytes(4 << 10)
	// Pairwise rounds, same reasoning as the obs and grid gates: time
	// the idle and the flushing broker back to back each round and keep
	// the round with the lowest overhead.
	const objects = 64
	plainBr := obsBenchBroker(t, true, objects, payload)
	flushBr := obsBenchBroker(t, true, objects, payload)
	defer flightBenchFlushes(t, flushBr.Metrics(), 2*time.Millisecond)()
	run := func(br *core.Broker) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := obsBenchOp(br, false, i, objects, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.NsPerOp())
	}
	overhead := 0.0
	for round := 0; round < 5; round++ {
		plain, flushed := run(plainBr), run(flushBr)
		v := 0.0
		if plain > 0 {
			v = (flushed - plain) / plain * 100
		}
		if round == 0 || v < overhead {
			overhead = v
		}
	}
	const slackPct = 5.0
	allowed := baseline.OverheadPct
	if allowed < 0 {
		allowed = 0
	}
	t.Logf("journal-flush overhead %.2f%% now vs %.2f%% at baseline", overhead, baseline.OverheadPct)
	if overhead > allowed+slackPct {
		t.Errorf("flush overhead %.2f%% exceeds baseline %.2f%% + %.1f points",
			overhead, allowed, slackPct)
	}
}
