package obs

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a snapshot, the
// body behind the /metrics endpoint. Internal metric names are dotted
// (trace.profile.accesses) and may carry brackets (sweep.job[flat]);
// Prometheus names may not, so every name is sanitised — invalid
// characters become underscores — and prefixed with "streamsched_".
// Families are emitted in sorted internal-name order, so the output is
// deterministic for a given snapshot and obsreport diffs line up.
//
// Mapping: counters export as counter families with a _total suffix,
// gauges as gauges, histograms as native Prometheus histograms
// (cumulative _bucket{le="..."} series over the non-empty power-of-two
// buckets, plus _sum and _count). Duration-valued series keep their
// recorded unit, nanoseconds.

// promName sanitises an internal metric name into a valid Prometheus
// metric name: [a-zA-Z0-9_:] survive, everything else becomes '_', and
// the streamsched_ prefix guarantees a valid leading character.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("streamsched_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus serialises the snapshot in Prometheus text exposition
// format. Span trees have no exposition mapping and are skipped; scrape
// /spans for them.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, k := range sortedKeys(s.Counters) {
		n := promName(k)
		fmt.Fprintf(&b, "# HELP %s_total streamsched counter %s\n", n, k)
		fmt.Fprintf(&b, "# TYPE %s_total counter\n", n)
		fmt.Fprintf(&b, "%s_total %d\n", n, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		n := promName(k)
		fmt.Fprintf(&b, "# HELP %s streamsched gauge %s\n", n, k)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", n)
		fmt.Fprintf(&b, "%s %d\n", n, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		hs := s.Histograms[k]
		n := promName(k)
		fmt.Fprintf(&b, "# HELP %s streamsched histogram %s (ns where duration-valued)\n", n, k)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		cum := int64(0)
		for _, bk := range hs.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", n, bk.Le, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, hs.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", n, hs.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", n, hs.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
