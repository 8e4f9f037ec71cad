package main

import (
	"os"
	"slices"
	"strconv"
	"strings"
)

// metricDef names one reported metric. moves says, for a per-layer
// metric, which end-to-end metric on which workload it should move;
// BENCHMARK.json lists the same names, units and directions.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd come from untraced runs (--trace 0). focus_* is the latency
// of the operation kind the workload was chosen for: local writes on
// local, pulls on pull, full reads on audit.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "commit_tps", unit: "1/s", better: "higher"},
	{name: "write_p50_us", unit: "us", better: "lower"},
	{name: "write_p90_us", unit: "us", better: "lower"},
	{name: "focus_p50_us", unit: "us", better: "lower"},
	{name: "focus_p90_us", unit: "us", better: "lower"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
}

// perLayer come from the traced run (--trace 1).
var perLayer = []metricDef{
	{"site.self_p50_us", "us", "lower", "write_p50_us on local"},
	{"site.attempts_per_request", "ratio", "lower", "commit_tps on audit"},
	{"site.timeout_ratio", "ratio", "lower", "commit_tps on audit"},
	{"site.stall_share", "ratio", "lower", "commit_tps on audit"},
	{"site.declined_per_ask", "ratio", "lower", "focus_p50_us on pull, commit_tps on audit"},
	{"site.vm_per_pull", "ratio", "lower", "commit_tps on pull"},
	{"site.router.request_p50_us", "us", "lower", "focus_p50_us on pull"},
	{"site.router.vm_p50_us", "us", "lower", "focus_p50_us on pull"},
	{"cc.reject_ratio", "ratio", "lower", "write_p90_us on local"},
	{"lock.conflict_ratio", "ratio", "lower", "write_p90_us on local"},
	{"wal.append_p50_us", "us", "lower", "write_p50_us on local; no change on audit"},
	{"wal.append_p99_us", "us", "lower", "write_p90_us on local; no change on audit"},
	{"wal.flush_p50_us", "us", "lower", "write_p90_us on local"},
	{"wal.records_per_flush", "count", "higher", "commit_tps on local"},
	{"wal.records_per_commit", "count", "lower", "recovery.restart_ms on every workload"},
	{"wal.bytes_per_commit", "B", "lower", "recovery.restart_ms on every workload"},
	{"tcpnet.send_p50_us", "us", "lower", "focus_p50_us on pull"},
	{"tcpnet.msgs_per_commit", "count", "lower", "focus_p50_us on pull (0 on local)"},
	{"tcpnet.bytes_per_commit", "B", "lower", "focus_p50_us on pull (0 on local)"},
	{"tcpnet.vm_transit_p50_us", "us", "lower", "focus_p50_us on pull"},
	{"vmsg.retransmits_per_vm", "ratio", "lower", "tcpnet.msgs_per_commit and focus_p90_us on pull"},
	{"vmsg.dup_ratio", "ratio", "lower", "tcpnet.msgs_per_commit and focus_p90_us on pull"},
	{"recovery.records_per_s", "1/s", "higher", "recovery.restart_ms"},
	{"recovery.records_scanned", "count", "lower", "recovery.restart_ms"},
	{"recovery.restart_ms", "ms", "lower", "none: the restart time itself, ungated because one replay takes about 24ms or 35ms with the host's state"},
	{"runtime.allocs_per_commit", "count", "lower", "write_p50_us on local"},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "write_p50_us on local"},
	{"bench.trace_overhead", "ratio", "lower", "none: untraced over traced commit_tps"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills the values of one metric table by name.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

// out renders the table; a metric left unset is reported missing.
func (m *metricSet) out() (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(m.defs))
	var missing []string
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// trimmedMean is the mean of xs without its lowest and highest value
// (the plain mean below three values).
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// cpuJiffies reads the host's cumulative stolen and total CPU time from
// /proc/stat; the share stolen during a window tells a record taken on
// a busy shared host from one taken on a quiet one.
func cpuJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
