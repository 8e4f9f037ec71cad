// Command perfbench is the repository benchmark. For one named workload
// it assembles a 4-site DvP cluster in-process over loopback TCP, drives
// it with closed-loop clients, checks that value was conserved and that
// restarted sites recover the quotas they held, and prints the
// end-to-end metrics. With --trace 1 it runs the workload a second time
// with the WAL, network and concurrency-control seams wrapped from
// outside the program and prints the per-layer metrics instead.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload local --seed 1 --seconds 30 --trace 0
//
// The fixed set-up, the same for every workload:
//
//   - 4 sites, the paper's running example, each assembled as
//     cmd/dvpnode assembles one: tcpnet.New, wal.OpenFileLog under
//     wal.NewGroupLog (group commit on, no per-append fsync, which
//     survives the process crashes the benchmark injects), store.New,
//     site.New with every Config knob at its default;
//   - 2 closed-loop clients in this process (GOMAXPROCS is left at
//     nproc), each drawing from its own stream of the seed and calling
//     Site.Run directly: the only sockets are the sites' peer links.
//     On local and pull each client runs at its own sites on its own
//     items, so no request fails for the other client's lock;
//   - up to 3 attempts per request (§5, "re-tried a few more times"); a
//     request's latency runs from its first attempt to its final
//     decision, and a request that gives up counts at that time.
//
// Set-up (assemble, create the items as logged commits, dial every peer
// link with one full read per site, quiesce) is timed several times and
// setup_s is the median. Before the measured window the clients run a
// fixed number of workload requests and site 1 is then crashed and
// restarted several times over a log whose size does not depend on
// throughput. The traced run reports recovery.restart_ms, the mean of
// those restarts without the fastest and slowest; it is not an
// end-to-end metric because on a shared 2-vCPU host one replay takes
// about 24ms or about 35ms with the host's state, which moved its
// median by a quarter between identical runs. Every other site is
// crash-restarted once, each
// restart must recover exactly the quotas the site held, and every
// peer link is redialled before the window starts.
//
// The last line of standard output is the result object; the line
// before it is the run's full record: the conditions it ran under
// (host, nproc, GOMAXPROCS, Go version, seed, workload parameters),
// per-kind latency with sample counts and stalls, the set-up and
// restart samples, and, for a traced run, which end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"dvp/internal/recovery"
	"dvp/internal/site"
)

// options is one invocation.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	dir         string // scratch directory for WAL files and span dumps
	setups      int    // set-ups timed per run; setup_s is their median
	restarts    int    // timed restarts of one site
	logRequests int    // requests per client that write the log the restarts replay
	sabotage    bool   // corrupt one observed delta (self-test of the conservation check)
}

// Defaults for a full run; the smoke tests shrink them.
const (
	defaultSetups      = 15
	defaultRestarts    = 11
	defaultLogRequests = 4000
)

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything else a run measured, and the conditions it was
// measured under: records are comparable only under equal conditions.
type record struct {
	Host       string                 `json:"host"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Go         string                 `json:"go"`
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Params     map[string]any         `json:"params"`
	Kinds      map[string]kindSummary `json:"kinds,omitempty"`
	SetupS     []float64              `json:"setup_s,omitempty"`
	RestartMS  []float64              `json:"restart_ms,omitempty"`
	WindowTPS  []float64              `json:"window_tps,omitempty"` // commit rate per sub-window
	Recovery   *recovery.Summary      `json:"recovery,omitempty"`
	Attempts   uint64                 `json:"attempts"`
	Timeouts   uint64                 `json:"timeouts"`
	StealShare float64                `json:"steal_share"` // host CPU stolen during the window
	Moves      map[string]string      `json:"moves,omitempty"`
	Problems   []string               `json:"problems"`
}

// kindSummary is one operation kind's latency in a window. Each
// quantile is the median, over the window's sub-windows, of that
// sub-window's quantile. The end-to-end metrics report p50 and p90: on
// a shared 2-vCPU host the p99 of pulls, and of the writes beside them,
// moved by a third between identical runs with the host's stolen CPU
// time.
type kindSummary struct {
	N     uint64  `json:"n"`
	P50us float64 `json:"p50_us"`
	P90us float64 `json:"p90_us"`
	P99us float64 `json:"p99_us"`
	// Stalls counts requests of at least half the default timeout:
	// one such stall outweighs thousands of fast requests.
	Stalls uint64 `json:"stalls"`
}

// stallAt is half site.Config's default DefaultTimeout.
const stallAt = 50 * time.Millisecond

func main() {
	o := options{setups: defaultSetups, restarts: defaultRestarts, logRequests: defaultLogRequests}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: local, pull or audit")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the clients' request streams")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for WAL files and span dumps")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload local|pull|audit --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, res, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, p := range rec.Problems {
			fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
		}
		os.Exit(1)
	}
}

// emit prints the record line and then the result line.
func emit(w io.Writer, res *result, rec *record) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]*record{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// run executes one invocation. An error means the benchmark could not
// run; a program fault it detects is reported through result.Correct.
func run(o options) (*result, *record, error) {
	wl := workloads[o.workload]
	host, _ := os.Hostname()
	rec := &record{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Params: map[string]any{
			"sites": numSites, "items": numItems, "hot_items": hotItems, "clients": numClients,
			"client_sites": "local, pull: each client its own sites; audit: any site",
			"max_attempts": maxAttempts, "setups": o.setups, "restarts": o.restarts,
			"requests_per_client_before_restarts": o.logRequests, "transport": "tcpnet loopback",
			"wal": "FileLog under GroupLog, no per-append fsync", "site_config": "defaults",
		},
		Problems: []string{},
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, nil, err
	}
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(o, wl, rec)
	} else {
		res, err = runEndToEnd(o, wl, rec)
	}
	if err != nil {
		return nil, nil, err
	}
	res.Correct = len(rec.Problems) == 0
	return res, rec, nil
}

// clusterDir is a fresh per-process directory for one cluster's WALs.
func clusterDir(o options, tag string) string {
	return filepath.Join(o.dir, fmt.Sprintf("wal-%d-%s", os.Getpid(), tag))
}

// runEndToEnd is the untraced run: set up several times, check and
// time restarts over a fixed log, measure the window, check
// conservation.
func runEndToEnd(o options, wl *workload, rec *record) (*result, error) {
	var c *cluster
	for i := range o.setups {
		if c != nil {
			c.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if c, err = assemble(clusterDir(o, fmt.Sprint(i)), wl, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(start).Seconds())
	}
	defer c.close()

	cs := newClients(o.seed)
	if err := restarts(c, wl, cs, o, rec); err != nil {
		return nil, err
	}
	w := window(c, wl, cs, o.seconds, nil)
	sanity(wl, w, rec)
	afterWindow(c, cs, o, rec)
	st := w.st

	m := newMetricSet(endToEnd)
	m.set("setup_s", median(rec.SetupS))
	rec.WindowTPS = st.rates()
	m.set("commit_tps", median(rec.WindowTPS))
	rec.Kinds = summarize(st)
	for _, p := range []struct {
		k    kind
		name string
	}{{kindWrite, "write"}, {wl.focus, "focus"}} {
		s, ok := rec.Kinds[kindNames[p.k]]
		if !ok {
			rec.Problems = append(rec.Problems, fmt.Sprintf("no %s requests in the window", kindNames[p.k]))
			continue
		}
		m.set(p.name+"_p50_us", s.P50us)
		m.set(p.name+"_p90_us", s.P90us)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.set("rss_peak_mb", rss)
	return finish(m, st, rec), nil
}

// runTraced measures the workload untraced for half the window (for the
// trace overhead and the runtime counters), then for the other half on
// a fresh cluster with every seam wrapped.
func runTraced(o options, wl *workload, rec *record) (*result, error) {
	m := newMetricSet(perLayer)

	c, err := assemble(clusterDir(o, "plain"), wl, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	cs := newClients(o.seed)
	var ms0, ms1 runtime.MemStats
	gc0 := gcCPU()
	runtime.ReadMemStats(&ms0)
	plain := window(c, wl, cs, o.seconds/2, nil)
	runtime.ReadMemStats(&ms1)
	gc1 := gcCPU()
	sanity(wl, plain, rec)
	afterWindow(c, cs, o, rec)
	c.close()
	m.set("runtime.allocs_per_commit", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(plain.st.committed)))
	m.set("runtime.gc_cpu_fraction", ratio(gc1[0]-gc0[0], gc1[1]-gc0[1]))

	tr := newTracer()
	if c, err = assemble(clusterDir(o, "traced"), wl, tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer c.close()
	cs = newClients(o.seed)
	if err := restarts(c, wl, cs, o, rec); err != nil {
		return nil, err
	}
	w := window(c, wl, cs, o.seconds/2, tr)
	sanity(wl, w, rec)
	afterWindow(c, cs, o, rec)
	if err := tr.writeSpans(filepath.Join(o.dir, "spans-"+wl.name+".jsonl")); err != nil {
		return nil, err
	}

	st, d, n := w.st, w.sites, w.trace
	commits := float64(st.committed)
	us := func(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }
	m.set("site.self_p50_us", us(&tr.self, 0.5))
	m.set("site.attempts_per_request", ratio(float64(st.attempts), float64(st.requests)))
	m.set("site.timeout_ratio", ratio(float64(st.timeouts), float64(st.attempts)))
	m.set("site.stall_share", ratio(st.stall.Seconds(), st.busy.Seconds()))
	m.set("site.declined_per_ask", ratio(float64(d.RequestsDeclined), float64(d.RequestsSent)))
	m.set("site.vm_per_pull", ratio(float64(d.VmCreated), float64(st.asked)))
	m.set("site.router.request_p50_us", us(&tr.routerReq, 0.5))
	m.set("site.router.vm_p50_us", us(&tr.routerVm, 0.5))
	m.set("cc.reject_ratio", ratio(float64(n[cCCRejects]), float64(n[cCCCalls])))
	m.set("lock.conflict_ratio", ratio(float64(st.conflict), float64(st.attempts)))
	m.set("wal.append_p50_us", us(&tr.walAppend, 0.5))
	m.set("wal.append_p99_us", us(&tr.walAppend, 0.99))
	m.set("wal.flush_p50_us", us(&tr.walFlush, 0.5))
	m.set("wal.records_per_flush", ratio(float64(n[cFlushRecs]), float64(n[cFlushes])))
	m.set("wal.records_per_commit", ratio(float64(n[cAppends]), commits))
	m.set("wal.bytes_per_commit", ratio(float64(n[cAppendBytes]), commits))
	m.set("tcpnet.send_p50_us", us(&tr.send, 0.5))
	m.set("tcpnet.msgs_per_commit", ratio(float64(n[cMsgs]), commits))
	m.set("tcpnet.bytes_per_commit", ratio(float64(n[cMsgBytes]), commits))
	m.set("tcpnet.vm_transit_p50_us", us(&tr.transit, 0.5))
	m.set("vmsg.retransmits_per_vm", ratio(float64(d.Retransmissions), float64(d.VmCreated)))
	m.set("vmsg.dup_ratio", ratio(float64(d.VmDuplicates), float64(d.VmAccepted+d.VmDuplicates)))
	if rec.Recovery != nil {
		m.set("recovery.records_per_s", ratio(float64(rec.Recovery.RecordsScanned), rec.Recovery.Elapsed.Seconds()))
		m.set("recovery.records_scanned", float64(rec.Recovery.RecordsScanned))
	}
	m.set("recovery.restart_ms", trimmedMean(rec.RestartMS))
	m.set("bench.trace_overhead", ratio(float64(plain.st.committed)/plain.elapsed.Seconds(), commits/w.elapsed.Seconds()))
	rec.Kinds = summarize(st)
	rec.Moves = make(map[string]string, len(perLayer))
	for _, def := range perLayer {
		rec.Moves[def.name] = def.moves
	}
	return finish(m, st, rec), nil
}

// windowResult is what one measured window produced.
type windowResult struct {
	st      *phaseStats
	elapsed time.Duration
	sites   site.Stats  // change in the sites' counters
	trace   traceCounts // change in the tracer's counters (traced runs)
}

// window runs the measured phase.
func window(c *cluster, wl *workload, cs []*client, seconds float64, tr *tracer) *windowResult {
	before := c.stats()
	steal0, total0 := cpuJiffies()
	var t0 traceCounts
	if tr != nil {
		t0 = tr.counts()
	}
	st, elapsed := drive(c, wl, cs, time.Now().Add(time.Duration(seconds*float64(time.Second))), 0, tr)
	w := &windowResult{st: st, elapsed: elapsed}
	if tr != nil {
		w.trace = tr.counts().minus(t0)
	}
	after := c.stats()
	steal1, total1 := cpuJiffies()
	st.stealShare = ratio(steal1-steal0, total1-total0)
	w.sites = site.Stats{
		RequestsSent:     after.RequestsSent - before.RequestsSent,
		RequestsDeclined: after.RequestsDeclined - before.RequestsDeclined,
		VmCreated:        after.VmCreated - before.VmCreated,
		VmAccepted:       after.VmAccepted - before.VmAccepted,
		VmDuplicates:     after.VmDuplicates - before.VmDuplicates,
		Retransmissions:  after.Retransmissions - before.Retransmissions,
	}
	return w
}

// sanity keeps each workload doing the layer work it was chosen for:
// local sends no message at all, and most pull requests ask peers.
func sanity(wl *workload, w *windowResult, rec *record) {
	st := w.st
	rec.Attempts, rec.Timeouts, rec.StealShare = st.attempts, st.timeouts, st.stealShare
	switch wl.name {
	case "local":
		sent := w.sites.RequestsSent + w.sites.VmCreated + w.sites.Retransmissions + w.trace[cMsgs]
		if sent != 0 || st.n(kindPull) != 0 {
			rec.Problems = append(rec.Problems, fmt.Sprintf("local sent %d messages and made %d pulls; it must send none", sent, st.n(kindPull)))
		}
	case "pull":
		if share := ratio(float64(st.n(kindPull)), float64(st.requests)); share <= 0.5 {
			rec.Problems = append(rec.Problems, fmt.Sprintf("only %.2f of pull requests asked a peer; most must", share))
		}
	}
}

// verify quiesces the cluster and checks conservation against the
// deltas the clients observed, recording any failure.
func verify(c *cluster, cs []*client, rec *record, stage string) {
	if err := c.quiesce(); err != nil {
		rec.Problems = append(rec.Problems, stage+": "+err.Error())
	}
	if err := c.checkConservation(observedDeltas(cs)); err != nil {
		rec.Problems = append(rec.Problems, stage+": "+err.Error())
	}
}

// restarts runs a fixed number of workload requests, so the log the
// restarts replay does not depend on throughput, then crashes and
// restarts site 1 o.restarts times (timed) and every other site once,
// checking that each recovered exactly the quotas it held. It redials
// every peer link afterwards, so the window dials none. The timed
// restarts land in rec.RestartMS.
func restarts(c *cluster, wl *workload, cs []*client, o options, rec *record) error {
	drive(c, wl, cs, time.Time{}, o.logRequests, nil)
	verify(c, cs, rec, "before the restarts")

	want := c.quotas()
	for range o.restarts {
		took, err := c.restart(restartSite, want)
		if err != nil {
			if errors.Is(err, errQuotaMismatch) {
				rec.Problems = append(rec.Problems, err.Error())
				break
			}
			return err
		}
		rec.RestartMS = append(rec.RestartMS, float64(took)/float64(time.Millisecond))
	}
	sum := c.sites[restartSite].LastRecovery()
	rec.Recovery = &sum
	for i := range c.sites {
		if i == restartSite {
			continue
		}
		if _, err := c.restart(i, want); err != nil {
			if !errors.Is(err, errQuotaMismatch) {
				return err
			}
			rec.Problems = append(rec.Problems, err.Error())
		}
	}
	if err := c.warm(); err != nil {
		return err
	}
	verify(c, cs, rec, "after the restarts")
	return nil
}

// afterWindow checks conservation once the window's traffic has
// drained. The sabotage option corrupts one observed delta first.
func afterWindow(c *cluster, cs []*client, o options, rec *record) {
	if o.sabotage {
		cs[0].deltas[0]++
	}
	verify(c, cs, rec, "after the window")
}

// restartSite is the site whose restarts restart_ms times.
const restartSite = 0

// summarize reports each operation kind that occurred.
func summarize(st *phaseStats) map[string]kindSummary {
	out := make(map[string]kindSummary)
	for k := range st.lat {
		var all hist
		var p50, p90, p99 []float64
		for w := range st.lat[k] {
			h := &st.lat[k][w]
			if h.count() == 0 {
				continue
			}
			p50 = append(p50, h.quantile(0.5)/1e3)
			p90 = append(p90, h.quantile(0.9)/1e3)
			p99 = append(p99, h.quantile(0.99)/1e3)
			all.merge(h)
		}
		n := all.count()
		if n == 0 {
			continue
		}
		out[kindNames[k]] = kindSummary{
			N: n, P50us: median(p50), P90us: median(p90), P99us: median(p99),
			Stalls: all.countAtLeast(int64(stallAt)),
		}
	}
	return out
}

// finish builds the result line from the metric set.
func finish(m *metricSet, st *phaseStats, rec *record) *result {
	out, missing := m.out()
	for _, name := range missing {
		rec.Problems = append(rec.Problems, "metric "+name+" was not measured")
	}
	return &result{Attempted: st.requests, Failed: st.failed, Metrics: out}
}

// gcCPU returns the process's cumulative GC and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}
