// Wire-throughput bench: small-op throughput over a high-latency link,
// serial vs pipelined vs batched. The link is a simnet.Delay conn that
// charges the full 5ms RTT on each request's delivery, so a serial
// protocol pays the link once per op while pipelined requests overlap
// their delays and a batch pays it once for the whole set — the
// throughput model the connection pool, request pipelining, and bulk
// ops exist to exploit. `make bench-wire` writes BENCH_wire.json;
// `make bench-wire-gate` (in `make check`) holds the ≥3x floor.
package gosrb_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/server"
	"gosrb/internal/simnet"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/workload"
)

// wireBenchRTT is the simulated round trip each request pays.
const wireBenchRTT = 5 * time.Millisecond

// wireBenchOps is the number of small ops per measured round.
const wireBenchOps = 32

// wireBenchRig starts one server seeded with wireBenchOps small objects
// and returns a client whose conns ride the delayed link.
func wireBenchRig(tb testing.TB) (*client.Client, []string) {
	tb.Helper()
	cat := mcat.New("admin", "sdsc")
	br := core.New(cat, "srb1")
	if err := br.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		tb.Fatal(err)
	}
	cat.MkColl("/d", "admin")
	payload := workload.NewGen(7).Bytes(256)
	paths := make([]string, wireBenchOps)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d/f%03d", i)
		if _, err := br.Ingest("admin", core.IngestOpts{Path: paths[i], Data: bytes.NewReader(payload), Resource: "disk1"}); err != nil {
			tb.Fatal(err)
		}
	}
	authn := auth.New()
	authn.Register("admin", "pw")
	s := server.New(br, authn, server.Proxy)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	cl, err := client.DialWith(addr, "admin", "pw", func(addr string) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return simnet.Delay(nc, wireBenchRTT), nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl, paths
}

// wireSerial stats every path one at a time — each op waits out its own
// round trip, the pre-pipelining throughput model.
func wireSerial(tb testing.TB, cl *client.Client, paths []string) time.Duration {
	tb.Helper()
	start := time.Now()
	for _, p := range paths {
		if _, err := cl.Stat(p); err != nil {
			tb.Fatal(err)
		}
	}
	return time.Since(start)
}

// wirePipelined stats every path from 16 workers sharing the pooled,
// multiplexed conns — in-flight requests overlap their link delays.
func wirePipelined(tb testing.TB, cl *client.Client, paths []string) time.Duration {
	tb.Helper()
	start := time.Now()
	var wg sync.WaitGroup
	idx := make(chan string, len(paths))
	for _, p := range paths {
		idx <- p
	}
	close(idx)
	errs := make(chan error, len(paths))
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range idx {
				if _, err := cl.Stat(p); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// wireBatched stats every path in one BulkStat round trip.
func wireBatched(tb testing.TB, cl *client.Client, paths []string) time.Duration {
	tb.Helper()
	start := time.Now()
	items, err := cl.BulkStat(paths)
	if err != nil {
		tb.Fatal(err)
	}
	for _, it := range items {
		if !it.OK {
			tb.Fatalf("bulkstat %s: %s", it.Path, it.ErrMsg)
		}
	}
	return time.Since(start)
}

func opsPerSec(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(wireBenchOps) / d.Seconds()
}

// TestWireBenchReport measures the three modes and writes
// BENCH_wire.json (the Makefile's bench-wire target, BENCH_WIRE=1).
func TestWireBenchReport(t *testing.T) {
	if os.Getenv("BENCH_WIRE") == "" {
		t.Skip("set BENCH_WIRE=1 to emit BENCH_wire.json")
	}
	cl, paths := wireBenchRig(t)
	// Warm-up: populate the pool and fault in every code path before
	// the clock runs.
	wireSerial(t, cl, paths[:2])
	wirePipelined(t, cl, paths)
	wireBatched(t, cl, paths)
	// Best-of-3 per mode: the minimum is the stable microbench estimator.
	best := func(run func(testing.TB, *client.Client, []string) time.Duration) time.Duration {
		var b time.Duration
		for round := 0; round < 3; round++ {
			if d := run(t, cl, paths); round == 0 || d < b {
				b = d
			}
		}
		return b
	}
	serial := best(wireSerial)
	pipelined := best(wirePipelined)
	batched := best(wireBatched)
	report := struct {
		Benchmark          string  `json:"benchmark"`
		RTTMillis          int64   `json:"rtt_ms"`
		Ops                int     `json:"ops"`
		SerialOpsPerSec    float64 `json:"serial_ops_per_sec"`
		PipelinedOpsPerSec float64 `json:"pipelined_ops_per_sec"`
		BatchedOpsPerSec   float64 `json:"batched_ops_per_sec"`
		PipelinedSpeedup   float64 `json:"pipelined_speedup"`
		BatchedSpeedup     float64 `json:"batched_speedup"`
	}{
		Benchmark:          "wire-throughput",
		RTTMillis:          wireBenchRTT.Milliseconds(),
		Ops:                wireBenchOps,
		SerialOpsPerSec:    opsPerSec(serial),
		PipelinedOpsPerSec: opsPerSec(pipelined),
		BatchedOpsPerSec:   opsPerSec(batched),
		PipelinedSpeedup:   serial.Seconds() / pipelined.Seconds(),
		BatchedSpeedup:     serial.Seconds() / batched.Seconds(),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_wire.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("serial %.0f ops/s, pipelined %.0f ops/s (%.1fx), batched %.0f ops/s (%.1fx)",
		report.SerialOpsPerSec, report.PipelinedOpsPerSec, report.PipelinedSpeedup,
		report.BatchedOpsPerSec, report.BatchedSpeedup)
}

// TestWireBenchGate holds the throughput floor: pipelined and batched
// small-op throughput must both clear 3x serial at the 5ms RTT. Five
// pairwise rounds — every round measures all three modes back to back
// so background load hits them equally — and the gate keeps each
// mode's best round, the one least distorted by the scheduler. Gated
// behind BENCH_WIRE_GATE=1 (`make bench-wire-gate`, part of `make
// check`).
func TestWireBenchGate(t *testing.T) {
	if os.Getenv("BENCH_WIRE_GATE") == "" {
		t.Skip("set BENCH_WIRE_GATE=1 to check the wire throughput floor")
	}
	cl, paths := wireBenchRig(t)
	wireSerial(t, cl, paths[:2])
	wirePipelined(t, cl, paths)
	wireBatched(t, cl, paths)
	const floor = 3.0
	bestPipelined, bestBatched := 0.0, 0.0
	for round := 0; round < 5; round++ {
		serial := wireSerial(t, cl, paths)
		pipelined := wirePipelined(t, cl, paths)
		batched := wireBatched(t, cl, paths)
		if v := serial.Seconds() / pipelined.Seconds(); v > bestPipelined {
			bestPipelined = v
		}
		if v := serial.Seconds() / batched.Seconds(); v > bestBatched {
			bestBatched = v
		}
	}
	t.Logf("best speedups over %d ops at %v RTT: pipelined %.1fx, batched %.1fx",
		wireBenchOps, wireBenchRTT, bestPipelined, bestBatched)
	if bestPipelined < floor {
		t.Errorf("pipelined speedup %.2fx is under the %.0fx floor", bestPipelined, floor)
	}
	if bestBatched < floor {
		t.Errorf("batched speedup %.2fx is under the %.0fx floor", bestBatched, floor)
	}
}
