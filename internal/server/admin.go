package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"gosrb/internal/core"
	"gosrb/internal/obs"
	"gosrb/internal/wire"
)

// adminServer is the operator-facing HTTP endpoint riding alongside the
// wire listener: plain-text metrics, a liveness probe, and the runtime
// profiler. It is read-only and unauthenticated, so bind it to
// localhost in production.
type adminServer struct {
	ln  net.Listener
	srv *http.Server
}

// AdminEnv is what the admin HTTP surface needs from its host daemon.
// srbd passes its Server-backed grid fan-out; mysrbd (which has no wire
// Server) passes just the broker and gets a local-only /grid.
type AdminEnv struct {
	// Name identifies the daemon in /healthz and reply envelopes.
	Name string
	// Broker supplies metrics, breakers, repair engine and SLO state.
	Broker *core.Broker
	// GridStat, when set, answers /grid with a zone-wide gather (srbd
	// wires the federated fan-out here). nil degrades to a local-only
	// single-member grid view.
	GridStat func(window time.Duration) wire.GridStatReply
	// PoolStats, when set, reports the daemon's federation connection
	// pool on /pool (srbd wires Server.PeerPoolStats; mysrbd, which
	// opens no peer connections, leaves it nil and /pool 404s).
	PoolStats func() wire.PoolStats
}

// NewAdminHandler builds the admin mux over env. Routes:
//
//	/metrics       Prometheus text exposition format; append
//	               ?format=openmetrics for OpenMetrics with trace-ID
//	               tail exemplars on histogram buckets, or
//	               ?window=5m for windowed rates/quantiles from the
//	               rollup ring (audit drops refreshed per scrape)
//	/healthz       readiness probe: 200 when healthy, 503 with one
//	               detail line per open breaker / offline resource /
//	               wedged repair engine; the repair backlog line and
//	               "warn:" SLO lines are informational in both cases
//	/grid          zone-wide windowed stats (JSON): per-member windows
//	               with stale/unreachable flags plus the merged grid
//	               aggregate; ?window=5m selects the trailing window
//	/alerts        SLO rule standings and the bounded fire/resolve
//	               alert log (JSON)
//	/repair        repair engine status (JSON); ?action=pause|resume
//	               via POST suspends/resumes background maintenance
//	/trace/{id}    rendered span tree for a trace (?format=json for
//	               the raw records)
//	/usage         per-user/collection usage accounting (text table,
//	               ?format=json for machine consumption)
//	/heat          hot-key/hot-object top-K, per-shard replication lag
//	               and the rebalance advisor plan (text table,
//	               ?format=json for machine consumption)
//	/debug/pprof/  the Go runtime profiler
func NewAdminHandler(env AdminEnv) http.Handler {
	b := env.Broker
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg := b.Metrics()
		reg.Gauge("audit.dropped").Set(b.Cat.AuditLog().Dropped())
		b.Breakers().Publish()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if q := r.URL.Query().Get("window"); q != "" {
			window, err := time.ParseDuration(q)
			if err != nil || window <= 0 {
				http.Error(w, "bad window (want a duration like 5m)", http.StatusBadRequest)
				return
			}
			obs.WriteWindowText(w, reg.Window(window))
			return
		}
		switch r.URL.Query().Get("format") {
		case "openmetrics":
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			obs.WriteOpenMetrics(w, reg.Snapshot())
		default:
			obs.WritePrometheus(w, reg.Snapshot())
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		b.Breakers().Publish()
		uptime := b.Metrics().Snapshot().UptimeSeconds
		ok, detail := readiness(b, env.Name)
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded %s version=%s uptime=%.0fs\n", env.Name, obs.Version, uptime)
		} else {
			fmt.Fprintf(w, "ok %s version=%s uptime=%.0fs\n", env.Name, obs.Version, uptime)
		}
		for _, d := range detail {
			fmt.Fprintf(w, "%s\n", d)
		}
	})
	mux.HandleFunc("/grid", func(w http.ResponseWriter, r *http.Request) {
		window := 5 * time.Minute
		if q := r.URL.Query().Get("window"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d <= 0 {
				http.Error(w, "bad window (want a duration like 5m)", http.StatusBadRequest)
				return
			}
			window = d
		}
		var rep wire.GridStatReply
		if env.GridStat != nil {
			rep = env.GridStat(window)
		} else {
			rep = localGridReply(b, env.Name, window)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/phases", func(w http.ResponseWriter, r *http.Request) {
		window := 5 * time.Minute
		if q := r.URL.Query().Get("window"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d <= 0 {
				http.Error(w, "bad window (want a duration like 5m)", http.StatusBadRequest)
				return
			}
			window = d
		}
		ws := b.Metrics().Window(window)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Server         string
			WindowSeconds  float64
			CoveredSeconds float64
			ExemplarMicros int64
			Phases         []obs.PhaseRow
		}{env.Name, ws.WindowSeconds, ws.CoveredSeconds,
			b.Metrics().ExemplarThreshold().Microseconds(), obs.PhaseRows(ws.Ops)})
	})
	mux.HandleFunc("/pool", func(w http.ResponseWriter, r *http.Request) {
		if env.PoolStats == nil {
			http.Error(w, "no federation pool on this daemon", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Server   string
			PeerPool wire.PoolStats
		}{env.Name, env.PoolStats()})
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(alertsOf(b, env.Name))
	})
	mux.HandleFunc("/incidents", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(incidentsOf(b, env.Name))
	})
	mux.HandleFunc("/incidents/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/incidents/")
		ir := b.Incidents()
		if ir == nil {
			http.Error(w, "flight recorder disabled (no -telemetry-dir)", http.StatusNotFound)
			return
		}
		meta, files, err := ir.Get(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		// A file query serves one raw bundle member; otherwise the meta
		// plus file listing (contents via ?file=).
		if name := r.URL.Query().Get("file"); name != "" {
			body, ok := files[name]
			if !ok {
				http.Error(w, "no such file in bundle", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(body)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(meta)
	})
	mux.HandleFunc("/peers", func(w http.ResponseWriter, r *http.Request) {
		rep := peersOf(b, env.Name)
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(rep)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%-16s %-12s %8s %6s %12s %10s %12s %8s\n",
			"PEER", "RESOURCE", "OPS", "ERRS", "BYTES", "EWMA_MS", "EWMA_MBPS", "SUCC%")
		for _, p := range rep.Peers {
			fmt.Fprintf(w, "%-16s %-12s %8d %6d %12d %10.2f %12.2f %8.1f\n",
				p.Peer, p.Resource, p.Ops, p.Errors, p.Bytes,
				p.EWMALatMicros/1000, p.EWMABytesPerSec/1e6, p.SuccessPct)
		}
	})
	mux.HandleFunc("/heat", func(w http.ResponseWriter, r *http.Request) {
		rep := heatOf(b, env.Name)
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(rep)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "hot catalog keys on %s (top %d)\n", env.Name, len(rep.Keys))
		fmt.Fprintf(w, "%-32s %10s %10s %12s\n", "KEY", "COUNT", "SCORE", "BYTES")
		for _, k := range rep.Keys {
			fmt.Fprintf(w, "%-32s %10d %10.1f %12d\n", k.Key, k.Count, k.Score, k.Bytes)
		}
		if len(rep.Objects) > 0 {
			fmt.Fprintf(w, "\nhot objects (top %d)\n", len(rep.Objects))
			fmt.Fprintf(w, "%-48s %10s %10s %12s\n", "OBJECT", "COUNT", "SCORE", "BYTES")
			for _, o := range rep.Objects {
				fmt.Fprintf(w, "%-48s %10d %10.1f %12d\n", o.Key, o.Count, o.Score, o.Bytes)
			}
		}
		if len(rep.Shards) > 0 {
			fmt.Fprintf(w, "\nshards\n")
			fmt.Fprintf(w, "%-5s %-8s %10s %10s %10s\n", "SHARD", "ROLE", "OBJECTS", "REPLAG_N", "REPLAG_S")
			for _, st := range rep.Shards {
				fmt.Fprintf(w, "%-5d %-8s %10d %10d %10.0f\n",
					st.Shard, st.Role, st.Objects, st.ReplagEntries, st.ReplagSeconds)
			}
		}
		if rep.Plan != nil {
			fmt.Fprintf(w, "\nrebalance plan (imbalance %.2fx -> %.2fx)\n",
				rep.Plan.Imbalance, rep.Plan.Projected)
			if rep.Plan.Note != "" {
				fmt.Fprintf(w, "%s\n", rep.Plan.Note)
			}
			for _, m := range rep.Plan.Moves {
				fmt.Fprintf(w, "move %-32s shard %d -> %d (score %.1f, ~%d keys, ~%d bytes)\n",
					m.Key, m.From, m.To, m.Score, m.EstKeys, m.EstBytes)
			}
		}
	})
	mux.HandleFunc("/repair", func(w http.ResponseWriter, r *http.Request) {
		switch action := r.URL.Query().Get("action"); action {
		case "":
		case "pause", "resume":
			eng := b.Repair()
			if eng == nil {
				http.Error(w, "no repair engine", http.StatusNotFound)
				return
			}
			if r.Method != http.MethodPost {
				http.Error(w, "pause/resume require POST", http.StatusMethodNotAllowed)
				return
			}
			if action == "pause" {
				eng.Pause()
			} else {
				eng.Resume()
			}
		default:
			http.Error(w, "unknown action (want pause or resume)", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(repairStatusOf(b, env.Name))
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/trace/")
		if id == "" {
			http.Error(w, "missing trace id", http.StatusBadRequest)
			return
		}
		recs := b.Metrics().Traces().ForTrace(id)
		if len(recs) == 0 {
			http.Error(w, "trace not found (ring may have wrapped)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(recs)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "trace %s on %s (%d spans)\n", id, env.Name, len(recs))
		obs.WriteTree(w, obs.AssembleTree(recs))
	})
	mux.HandleFunc("/usage", func(w http.ResponseWriter, r *http.Request) {
		entries := b.Metrics().Usage().Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(entries)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%-12s %-24s %8s %6s %12s %12s %10s\n",
			"USER", "COLLECTION", "OPS", "ERRS", "BYTES_IN", "BYTES_OUT", "AVG_MS")
		for _, e := range entries {
			avgMS := float64(0)
			if e.Ops > 0 {
				avgMS = float64(e.TotalMicros) / float64(e.Ops) / 1000
			}
			fmt.Fprintf(w, "%-12s %-24s %8d %6d %12d %12d %10.2f\n",
				e.User, e.Collection, e.Ops, e.Errors, e.BytesIn, e.BytesOut, avgMS)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// localGridReply is the degraded /grid answer for daemons without a
// federation fan-out: one member, this broker's own window.
func localGridReply(b *core.Broker, name string, window time.Duration) wire.GridStatReply {
	ws := b.Metrics().Window(window)
	m := wire.GridMember{Server: name, Window: ws}
	if ws.CoveredSeconds < staleFraction*ws.WindowSeconds {
		m.Stale = true
	}
	return wire.GridStatReply{
		Server:        name,
		WindowSeconds: window.Seconds(),
		Members:       []wire.GridMember{m},
		Grid:          obs.MergeWindows([]obs.WindowStats{ws}),
	}
}

// adminGridDeadline bounds the zone fan-out behind the admin /grid
// endpoint; a dead peer costs one refused dial, well inside it.
const adminGridDeadline = 5 * time.Second

// GridStat answers a zone-wide windowed gather on behalf of a local
// surface (the admin /grid closure and the flight recorder's bundle
// snapshot use it).
func (s *Server) GridStat(window time.Duration) wire.GridStatReply {
	return s.gatherGridStat("admin", window, true, time.Now().Add(adminGridDeadline), nil)
}

// ServeAdmin starts the admin endpoint on addr ("host:0" picks a port)
// and returns the bound address. See NewAdminHandler for the routes.
// The endpoint stops when the server closes.
func (s *Server) ServeAdmin(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	h := NewAdminHandler(AdminEnv{
		Name:      s.name,
		Broker:    s.broker,
		GridStat:  s.GridStat,
		PoolStats: s.PeerPoolStats,
	})
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.admin = &adminServer{ln: ln, srv: srv}
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			select {
			case <-s.closed:
			default:
				s.Logger.Errorf("admin: %v", err)
			}
		}
	}()
	return ln.Addr().String(), nil
}

// closeAdmin stops the admin endpoint if one is serving.
func (s *Server) closeAdmin() {
	s.mu.Lock()
	a := s.admin
	s.admin = nil
	s.mu.Unlock()
	if a != nil {
		a.srv.Close()
	}
}
