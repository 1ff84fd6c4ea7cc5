package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/core"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/repair"
	"gosrb/internal/server"
	"gosrb/internal/storage"
	"gosrb/internal/storage/posixfs"
	"gosrb/internal/types"
)

// The server under test. It is assembled from the public constructors
// cmd/srbd uses, with srbd's defaults, and is the equivalent of
//
//	srbd -mcat-shards 4 -catalog <dir>/mcat.json -journal <dir>/mcat.jnl \
//	     -resource vault0=posixfs:<dir>/vault0 (and vault1, vault2) \
//	     -logical mirror=vault1,vault2
//
// The journal is appended without fsync, which is srbd's only policy.

const (
	adminUser  = "admin"
	adminPass  = "bench"
	mcatShards = 4
)

// node is one assembled server.
type node struct {
	store  *shard.Store
	router *shard.Router
	srv    *server.Server
	eng    *repair.Engine
	addr   string

	// Layer wrappers; nil when assembled bare.
	tr     *tracer
	cat    *catLayer
	vaults *storeStats
	head0  []uint64 // replication-log head of each shard at boot
}

// assemble builds and starts a server over dir. With tr nil the layer
// wrappers are left out (the fidelity test compares the two).
func assemble(dir string, tr *tracer, logw io.Writer) (*node, error) {
	logger := log.New(logw, "srbd: ", log.LstdFlags)
	st, err := shard.Open(shard.OpenOptions{
		Shards:      mcatShards,
		CatalogPath: filepath.Join(dir, "mcat.json"),
		JournalPath: filepath.Join(dir, "mcat.jnl"),
		Admin:       adminUser,
		Domain:      "local",
		Logf:        logger.Printf,
	})
	if err != nil {
		return nil, fmt.Errorf("mcat: %w", err)
	}
	n := &node{store: st, router: st.Router(), tr: tr}
	for _, s := range n.router.Statuses() {
		n.head0 = append(n.head0, s.Head)
	}
	var cat shard.Catalog = n.router
	if tr != nil {
		n.cat = &catLayer{Router: n.router, t: tr}
		n.vaults = &storeStats{t: tr}
		cat = n.cat
	}
	b := core.New(cat, "srb1")
	b.Metrics().SetExemplarThreshold(obs.DefaultExemplarThreshold)
	n.router.SetMetrics(b.Metrics())

	authn := auth.New()
	authn.Register(adminUser, adminPass)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("vault%d", i)
		fs, err := posixfs.New(filepath.Join(dir, name))
		if err != nil {
			st.Close()
			return nil, err
		}
		var d storage.Driver = fs
		if tr != nil {
			d = layerDriver(fs, n.vaults)
		}
		if err := b.AddPhysicalResource(adminUser, name, types.ClassFileSystem, "posixfs", d); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := b.AddLogicalResource(adminUser, "mirror", []string{"vault1", "vault2"}); err != nil {
		st.Close()
		return nil, err
	}

	srv := server.New(b, authn, server.Proxy)
	srv.Logger = obs.NewLogger(logw, "srb1", obs.LevelInfo)
	eng := repair.New(repair.Config{
		Workers:  2,
		Queue:    cat,
		Exec:     b.RunRepairTask,
		Metrics:  b.Metrics(),
		Breakers: b.Breakers(),
		Server:   "srb1",
	})
	eng.AddJob("rollup", obs.DefaultRollupInterval, 0.1, func(sp *obs.Span) error {
		b.Metrics().CaptureRollup(time.Now())
		return nil
	})
	eng.AddJob("heat.decay", time.Minute, 0.1, func(sp *obs.Span) error {
		b.Metrics().HeatKeys().Decay(0.5)
		b.Metrics().HeatObjects().Decay(0.5)
		return nil
	})
	eng.AddJob("advisor", time.Minute, 0.1, func(sp *obs.Span) error {
		now := time.Now()
		n.router.RefreshReplag(now)
		n.router.Advise(b.Metrics().HeatKeys().Snapshot(), now)
		return nil
	})
	b.SetRepair(eng)
	eng.Start()
	n.srv, n.eng = srv, eng
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.addr = addr
	return n, nil
}

func (n *node) close() {
	if n.srv != nil {
		n.srv.Close()
	}
	if n.eng != nil {
		n.eng.Stop()
	}
	n.store.Close()
}

// replogFull reports whether every shard's replication window has been
// filled since boot, so RepLog.Append is in its steady state.
func (n *node) replogFull() bool {
	for i, s := range n.router.Statuses() {
		if s.Head-n.head0[i] < shard.DefaultRepLogCap {
			return false
		}
	}
	return true
}

// mark is the server's cumulative record at one instant.
type mark struct {
	CPUMicros  int64   // user+sys CPU of the server process
	PeakRSSKB  int64   // VmHWM
	AllocBytes uint64  // cumulative heap allocation
	GCCycles   uint64  // completed GC cycles
	GCCPUSec   float64 // CPU the runtime estimates GC used
	Cat        catCounts
	Store      storeCounts
	ReplogFull bool
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func (n *node) mark() (mark, error) {
	var m mark
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return m, err
	}
	m.CPUMicros = ru.Utime.Nano()/1e3 + ru.Stime.Nano()/1e3
	rss, err := vmHWM()
	if err != nil {
		return m, err
	}
	m.PeakRSSKB = rss
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	m.AllocBytes = s[0].Value.Uint64()
	m.GCCycles = s[1].Value.Uint64()
	m.GCCPUSec = s[2].Value.Float64()
	m.Cat = n.cat.counts()
	m.Store = n.vaults.counts()
	m.ReplogFull = n.replogFull()
	return m, nil
}

// vmHWM reads the process's peak resident set in KiB.
func vmHWM() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// catP50s are the traced catalog call latencies.
type catP50s struct {
	LookupUs, WriteUs, QueryUs float64
}

// serve is the child process: it assembles a server over -dir, prints
// its address, and answers control lines on stdin until EOF, which is
// the request to shut down.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dir := fs.String("dir", "", "server state directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(*dir, "srbd.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	n, err := assemble(*dir, newTracer(), logf)
	if err != nil {
		return err
	}
	defer n.close()
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]string{"addr": n.addr}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		var reply any
		switch cmd {
		case "trace":
			n.tr.on.Store(arg == "1")
			reply = true
		case "mark":
			m, err := n.mark()
			if err != nil {
				return err
			}
			reply = m
		case "layers":
			reply = catP50s{n.cat.lookup.p50us(), n.cat.write.p50us(), n.cat.qry.p50us()}
		case "spans":
			dropped, err := n.tr.spans.writeFile(arg)
			if err != nil {
				return err
			}
			reply = dropped
		default:
			return fmt.Errorf("unknown control line %q", in.Text())
		}
		if err := out.Encode(reply); err != nil {
			return err
		}
	}
	return in.Err()
}
