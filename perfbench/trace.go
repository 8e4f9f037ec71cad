package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dvp/internal/cc"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// This file is the traced run's instrumentation. It wraps, from
// outside the program, the seams a site is assembled from — the WAL
// (GroupLog and the FileLog beneath it), the network endpoint and the
// handler the site installs on it, and the concurrency-control policy —
// and times every call through them. Spans of one request share its
// timestamp wherever the layer call carries it: the commit record's
// TS, Request.Txn, Vm.ReqTxn.

// tracer collects the per-layer numbers of one traced cluster. Its
// latency histograms cover the cluster's whole life — set-up, the
// requests and restarts before the window, the window — so a layer the
// window never calls (the network, on local) is still timed from the
// peer-link dial rounds. Its counters are read as deltas over the
// window.
type tracer struct {
	base time.Time

	walAppend, walFlush, send, routerReq, routerVm, transit, self hist

	n         [numCounters]atomic.Uint64
	commitWAL shardMap // commit TS → WAL append time inside its Run
	commitTS  shardMap // site<<48|commit LSN → commit TS
	vmSent    shardMap // from<<56|to<<48|seq → send time
	spans     spanRing
	unkeyed   atomic.Uint64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// The tracer's counters.
const (
	cFlushes     = iota // inner AppendBatch calls
	cFlushRecs          // records those calls carried
	cAppends            // site-facing Append calls
	cAppendBytes        // their payload bytes
	cMsgs               // Endpoint.Send calls
	cMsgBytes           // their framed bytes
	cCCCalls            // cc.Policy.AllowLock calls
	cCCRejects          // of those, refused
	numCounters
)

// traceCounts is a snapshot of the tracer's counters.
type traceCounts [numCounters]uint64

func (t *tracer) counts() traceCounts {
	var c traceCounts
	for i := range c {
		c[i] = t.n[i].Load()
	}
	return c
}

func (c traceCounts) minus(b traceCounts) traceCounts {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

// now is monotonic nanoseconds since the tracer was made.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// Span layers, in the order the dump names them.
const (
	spanRun uint8 = iota
	spanWALAppend
	spanWALFlush
	spanSend
	spanRouterRequest
	spanRouterVm
	numSpanLayers
)

var spanNames = [numSpanLayers]string{
	"site.run", "wal.append", "wal.flush", "wire.send", "site.router.request", "site.router.vm",
}

// span records one call through a seam. Spans keyed by a request
// timestamp are kept for 1 request in 16 (all of that request's spans
// together); unkeyed ones for 1 call in 64.
func (t *tracer) span(layer uint8, site ident.SiteID, key uint64, start, dur int64) {
	if key != 0 {
		if (key*0x9E3779B97F4A7C15)>>60 != 0 {
			return
		}
	} else if t.unkeyed.Add(1)%64 != 0 {
		return
	}
	t.spans.add(spanRec{Layer: layer, Site: uint8(site), Key: key, Start: start, Dur: dur})
}

// writeSpans dumps the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans.snapshot() {
		if err := enc.Encode(map[string]any{
			"layer": spanNames[s.Layer], "site": s.Site, "ts": s.Key,
			"start_us": float64(s.Start) / 1e3, "dur_us": float64(s.Dur) / 1e3,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runDone records one Run attempt seen by a client: its span, and for
// a commit its self time — the attempt's duration minus the WAL
// appends made inside it.
func (t *tracer) runDone(site ident.SiteID, ts tstamp.TS, committed bool, start, dur int64) {
	t.span(spanRun, site, uint64(ts), start, dur)
	if !committed {
		return
	}
	inWAL, _ := t.commitWAL.take(uint64(ts))
	t.self.record(dur - inWAL)
}

// --- wal ----------------------------------------------------------------

// tracedLog times the site-facing GroupLog: Append is queue + write +
// notify.
type tracedLog struct {
	wal.Log
	t    *tracer
	site ident.SiteID
}

func (l *tracedLog) Append(kind wal.RecordKind, data []byte) (uint64, error) {
	// The applied record names its commit by LSN; the commit record
	// carries the TS up front. Both are decoded before the call: data
	// is borrowed only for its duration.
	var key uint64
	switch kind {
	case wal.RecCommit:
		key = wire.NewReader(data).U64()
	case wal.RecApplied:
		ts, _ := l.t.commitTS.take(uint64(l.site)<<48 | wire.NewReader(data).U64())
		key = uint64(ts)
	}
	n := len(data)
	start := l.t.now()
	lsn, err := l.Log.Append(kind, data)
	dur := l.t.now() - start
	l.t.walAppend.record(dur)
	l.t.n[cAppends].Add(1)
	l.t.n[cAppendBytes].Add(uint64(n))
	l.t.span(spanWALAppend, l.site, key, start, dur)
	if key != 0 && err == nil {
		l.t.commitWAL.add(key, dur)
		if kind == wal.RecCommit {
			l.t.commitTS.store(uint64(l.site)<<48|lsn, int64(key))
		}
	}
	return lsn, err
}

// tracedFileLog times the FileLog beneath the GroupLog. Embedding the
// FileLog keeps every method it has, and AppendBatch — the
// BatchAppender the GroupLog looks for — is timed, so the traced run
// flushes through the same path as the untraced one.
type tracedFileLog struct {
	*wal.FileLog
	t    *tracer
	site ident.SiteID
}

func (l *tracedFileLog) AppendBatch(entries []wal.BatchEntry) (uint64, error) {
	start := l.t.now()
	first, err := l.FileLog.AppendBatch(entries)
	dur := l.t.now() - start
	l.t.walFlush.record(dur)
	l.t.n[cFlushes].Add(1)
	l.t.n[cFlushRecs].Add(uint64(len(entries)))
	l.t.span(spanWALFlush, l.site, 0, start, dur)
	return first, err
}

// --- wire ---------------------------------------------------------------

// tracedEndpoint times Send and the handler the site installs through
// SetHandler, and matches each Vm's send at the granter to its arrival
// at the receiver by sender and sequence number.
type tracedEndpoint struct {
	wire.Endpoint
	t *tracer
}

func vmKey(from, to ident.SiteID, seq uint64) uint64 {
	return uint64(from)<<56 | uint64(to)<<48 | seq
}

func (e *tracedEndpoint) Send(env *wire.Envelope) error {
	w := wire.GetWriter()
	_ = env.MarshalInto(w)
	size := w.Len() + 4 // tcpnet's length prefix
	wire.PutWriter(w)

	from := e.Endpoint.Site()
	start := e.t.now()
	var key uint64
	switch m := env.Msg.(type) {
	case *wire.Request:
		key = uint64(m.Txn)
	case *wire.Vm:
		key = uint64(m.ReqTxn)
		e.t.vmSent.store(vmKey(from, env.To, m.Seq), start)
	case *wire.VmBatch:
		for i := range m.Vms {
			e.t.vmSent.store(vmKey(from, env.To, m.Vms[i].Seq), start)
		}
	}
	err := e.Endpoint.Send(env)
	dur := e.t.now() - start
	e.t.send.record(dur)
	e.t.n[cMsgs].Add(1)
	e.t.n[cMsgBytes].Add(uint64(size))
	e.t.span(spanSend, from, key, start, dur)
	return err
}

func (e *tracedEndpoint) SetHandler(h wire.Handler) {
	self := e.Endpoint.Site()
	e.Endpoint.SetHandler(func(env *wire.Envelope) {
		start := e.t.now()
		layer, key := uint8(0), uint64(0)
		var times *hist
		switch m := env.Msg.(type) {
		case *wire.Request:
			layer, key, times = spanRouterRequest, uint64(m.Txn), &e.t.routerReq
		case *wire.Vm:
			layer, key, times = spanRouterVm, uint64(m.ReqTxn), &e.t.routerVm
			e.t.arrived(vmKey(env.From, self, m.Seq), start)
		case *wire.VmBatch:
			layer, times = spanRouterVm, &e.t.routerVm
			for i := range m.Vms {
				e.t.arrived(vmKey(env.From, self, m.Vms[i].Seq), start)
			}
		}
		h(env)
		if times != nil {
			dur := e.t.now() - start
			times.record(dur)
			e.t.span(layer, self, key, start, dur)
		}
	})
}

// arrived closes a Vm transit opened at the sender.
func (t *tracer) arrived(key uint64, at int64) {
	if sent, ok := t.vmSent.take(key); ok {
		t.transit.record(at - sent)
	}
}

// --- cc -----------------------------------------------------------------

// tracedPolicy counts admission decisions and rejections.
type tracedPolicy struct {
	cc.Policy
	t *tracer
}

func (p tracedPolicy) AllowLock(txn, item tstamp.TS) bool {
	ok := p.Policy.AllowLock(txn, item)
	p.t.n[cCCCalls].Add(1)
	if !ok {
		p.t.n[cCCRejects].Add(1)
	}
	return ok
}

// --- building blocks ----------------------------------------------------

// shardMap is a uint64→int64 map sharded by key hash, for the
// correlations the wrappers make across goroutines.
type shardMap struct {
	shards [64]mapShard
}

type mapShard struct {
	mu sync.Mutex
	m  map[uint64]int64
}

func (s *shardMap) shard(k uint64) *mapShard {
	sh := &s.shards[(k*0x9E3779B97F4A7C15)>>58]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64]int64)
	}
	return sh
}

func (s *shardMap) store(k uint64, v int64) {
	sh := s.shard(k)
	sh.m[k] = v
	sh.mu.Unlock()
}

func (s *shardMap) add(k uint64, v int64) {
	sh := s.shard(k)
	sh.m[k] += v
	sh.mu.Unlock()
}

func (s *shardMap) take(k uint64) (int64, bool) {
	sh := s.shard(k)
	v, ok := sh.m[k]
	delete(sh.m, k)
	sh.mu.Unlock()
	return v, ok
}

// spanRec is one kept span: times are tracer-relative nanoseconds.
type spanRec struct {
	Layer uint8
	Site  uint8
	Key   uint64
	Start int64
	Dur   int64
}

// spanRing keeps the most recent spans in memory until the run ends.
type spanRing struct {
	mu   sync.Mutex
	buf  [1 << 14]spanRec
	next int
	full bool
}

func (r *spanRing) add(s spanRec) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

func (r *spanRing) snapshot() []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]spanRec(nil), r.buf[:r.next]...)
	}
	return append(append([]spanRec(nil), r.buf[r.next:]...), r.buf[:r.next]...)
}
