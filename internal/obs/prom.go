package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus dumps the registry in the Prometheus text exposition
// format: every metric gets `# HELP`/`# TYPE` headers, dotted names
// become `srb_`-prefixed underscore names, and each Op's latency
// histogram is emitted as cumulative `_bucket{le="..."}` series (in
// seconds) with `_sum`/`_count`, so a stock Prometheus scraper can
// consume the srbd admin endpoint directly.
func WritePrometheus(w io.Writer, s Snapshot) error {
	var b strings.Builder

	writeHeader := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	writeHeader("srb_build_info", "gauge", "Build version, injected at link time; value is always 1.")
	fmt.Fprintf(&b, "srb_build_info{version=%q} 1\n", buildVersion(s))

	writeHeader("srb_uptime_seconds", "gauge", "Seconds since the telemetry registry was created.")
	fmt.Fprintf(&b, "srb_uptime_seconds %s\n", formatFloat(s.UptimeSeconds))

	for _, k := range sortedKeys(s.Counters) {
		name := promName(k) + "_total"
		writeHeader(name, "counter", "Counter "+k+".")
		fmt.Fprintf(&b, "%s %d\n", name, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		name := promName(k)
		writeHeader(name, "gauge", "Gauge "+k+".")
		fmt.Fprintf(&b, "%s %d\n", name, s.Gauges[k])
	}

	opNames := make([]string, 0, len(s.Ops))
	for k := range s.Ops {
		opNames = append(opNames, k)
	}
	sort.Strings(opNames)
	for _, k := range opNames {
		o := s.Ops[k]
		base := promName(k)
		writeHeader(base+"_ops_total", "counter", "Completed "+k+" operations.")
		fmt.Fprintf(&b, "%s_ops_total %d\n", base, o.Count)
		writeHeader(base+"_errors_total", "counter", "Failed "+k+" operations.")
		fmt.Fprintf(&b, "%s_errors_total %d\n", base, o.Errors)
		writeHeader(base+"_duration_seconds", "histogram", "Latency of "+k+" operations.")
		var cum int64
		for _, bk := range o.Buckets {
			cum += bk.Count
			// The last pow2 bucket is open-ended: its count belongs only
			// to +Inf, not to a finite le bound it does not actually obey.
			if bk.UpperMicros >= BucketUpperMicros(histBuckets-1) {
				continue
			}
			fmt.Fprintf(&b, "%s_duration_seconds_bucket{le=\"%s\"} %d\n",
				base, formatFloat(float64(bk.UpperMicros)/1e6), cum)
		}
		fmt.Fprintf(&b, "%s_duration_seconds_bucket{le=\"+Inf\"} %d\n", base, cum)
		fmt.Fprintf(&b, "%s_duration_seconds_sum %s\n", base, formatFloat(float64(o.TotalMicros)/1e6))
		fmt.Fprintf(&b, "%s_duration_seconds_count %d\n", base, o.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// buildVersion prefers the snapshot's stamped version (set by the
// server that produced it, which may be a remote peer) over this
// binary's own.
func buildVersion(s Snapshot) string {
	if s.Version != "" {
		return s.Version
	}
	return Version
}

// promName maps a dotted registry name to a legal Prometheus metric
// name: srb_ prefix, every non-[a-zA-Z0-9_] rune replaced with '_'.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("srb_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
