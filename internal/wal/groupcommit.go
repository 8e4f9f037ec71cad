package wal

import (
	"sync"
	"time"

	"dvp/internal/metrics"
	"dvp/internal/obs"
	"dvp/internal/vclock"
)

// GroupCommitOptions configures a GroupLog.
type GroupCommitOptions struct {
	// MaxBatch bounds how many records one flush may carry
	// (default 128).
	MaxBatch int
	// Linger is how long a flush's leader waits after taking the lead
	// before forcing, giving concurrent committers a window to join.
	// Zero (the default) flushes immediately; natural batching still
	// happens, because arrivals during an in-progress flush queue up
	// and ride the next one.
	Linger time.Duration
	// Clock times the linger (nil = real clock).
	Clock vclock.Clock
}

// groupWaiter is one queued append. The leader that flushes it sets
// lsn or err under GroupLog.mu; LSNs start at 1, so either being set
// means flushed.
type groupWaiter struct {
	entry BatchEntry
	lsn   uint64
	err   error
}

// GroupLog is the group-commit pipeline: a Log whose concurrent
// appends share one AppendBatch on the inner log — one write, one
// force, many commit points (§5 step 5: stability of the record is the
// commit point; *whose* fsync made it stable is immaterial). Append
// keeps the Log contract exactly: when it returns nil, the record is
// stable.
//
// Flushes run on the appenders' own goroutines. An appender that
// finds no flush in progress leads one: it writes the queue with one
// AppendBatch and marks each record flushed. Appenders arriving
// meanwhile queue and wait; then one whose record is still queued
// leads the next flush. A lone committer pays one write, no hand-off.
//
// The GroupLog itself is volatile (the queue is process state): a
// crash loses queued-but-unflushed records, which is safe because
// their appenders were still waiting and nothing was acknowledged.
type GroupLog struct {
	inner Log
	batch BatchAppender // inner's native batching, if any
	opts  GroupCommitOptions

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when a flush ends
	queue    []*groupWaiter
	spare    []*groupWaiter // the last flushed batch's array, reused
	flushing bool
	inFlight int
	durable  uint64
	closed   bool

	hook func(batch int) // test/chaos observation of each flush

	// entryScratch is the leader's reusable batch-assembly buffer;
	// flushing excludes a second leader, so one buffer serves all.
	entryScratch []BatchEntry

	// Flight recording (see SetFlight); nil when not recording.
	flight     *obs.Flight
	flightSite string

	// Instrumentation (see Instrument); nil when not instrumented.
	flushLat  *metrics.Histogram
	batchHist *metrics.Histogram
	flushes   *metrics.Counter
	records   *metrics.Counter
}

// NewGroupLog wraps inner with group commit. It starts no goroutine;
// Close flushes what is queued and closes inner.
func NewGroupLog(inner Log, opts GroupCommitOptions) *GroupLog {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 128
	}
	if opts.Clock == nil {
		opts.Clock = vclock.Real{}
	}
	g := &GroupLog{
		inner:   inner,
		opts:    opts,
		durable: inner.LastLSN(),
	}
	if ba, ok := inner.(BatchAppender); ok {
		g.batch = ba
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Append implements Log: enqueue, then lead a flush or wait for the
// current leader, until the record is stable.
//
// data is borrowed, not copied: the caller stays in Append until a
// leader has handed it to the inner log (which consumes it before
// AppendBatch returns). This lets committers encode records into
// pooled scratch and return it right after Append — the whole batch
// is built with zero intermediate copies.
func (g *GroupLog) Append(kind RecordKind, data []byte) (uint64, error) {
	w := &groupWaiter{entry: BatchEntry{Kind: kind, Data: data}}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, ErrClosed
	}
	g.queue = append(g.queue, w)
	for w.lsn == 0 && w.err == nil {
		if g.flushing {
			g.cond.Wait()
		} else {
			g.flushLocked()
		}
	}
	g.mu.Unlock()
	return w.lsn, w.err
}

// flushLocked leads one flush: optionally linger to let a group
// gather, then force up to MaxBatch queued records with one inner
// AppendBatch and mark each flushed. Caller holds g.mu with a
// non-empty queue and no flush in progress; the lock is dropped for
// the linger and the write and held again on return.
func (g *GroupLog) flushLocked() {
	g.flushing = true
	if g.opts.Linger > 0 && len(g.queue) < g.opts.MaxBatch && !g.closed {
		g.mu.Unlock()
		g.opts.Clock.Sleep(g.opts.Linger)
		g.mu.Lock()
	}
	n := min(len(g.queue), g.opts.MaxBatch)
	// The batch keeps the queue's array; later arrivals go to the
	// spare one, so the leader can read the batch without the lock.
	group := g.queue[:n]
	g.queue = append(g.spare[:0], g.queue[n:]...)
	g.inFlight = n
	hook := g.hook
	flight, flightSite := g.flight, g.flightSite
	flushLat, batchHist, flushes, records := g.flushLat, g.batchHist, g.flushes, g.records
	g.mu.Unlock()

	if hook != nil {
		hook(n)
	}
	if cap(g.entryScratch) < n {
		g.entryScratch = make([]BatchEntry, n)
	}
	entries := g.entryScratch[:n]
	for i, w := range group {
		entries[i] = w.entry
	}
	var start time.Time
	if flushLat != nil {
		start = time.Now()
	}
	var first uint64
	var err error
	if g.batch != nil {
		first, err = g.batch.AppendBatch(entries)
	} else {
		first, err = appendBatchFallback(g.inner, entries)
	}
	if flushLat != nil {
		flushLat.Record(time.Since(start))
		// The batch-size histogram reuses the duration histogram's
		// log-spaced buckets by encoding size n as n microseconds.
		batchHist.Record(time.Duration(n) * time.Microsecond)
		flushes.Inc()
		records.Add(uint64(n))
	}
	// Clear the scratch so it never pins the appenders' pooled data.
	clear(entries)
	if err == nil {
		flight.Recordf(flightSite, "wal-flush", "records=%d first_lsn=%d", n, first)
	} else {
		flight.Recordf(flightSite, "wal-flush-err", "records=%d err=%v", n, err)
	}

	g.mu.Lock()
	if err == nil {
		g.durable = first + uint64(n) - 1
	}
	for i, w := range group {
		if err != nil {
			w.err = err
		} else {
			w.lsn = first + uint64(i)
		}
	}
	clear(group)
	g.spare = group[:0]
	g.inFlight = 0
	g.flushing = false
	g.cond.Broadcast()
}

// DurableLSN reports the highest LSN a flush has made stable. At a
// quiescent point it equals LastLSN(); mid-flush it trails it.
func (g *GroupLog) DurableLSN() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.durable
}

// Waiters reports how many appends are queued or riding an in-progress
// flush — the waiter/durable-LSN boundary the chaos harness audits: a
// record is either durable (LSN ≤ DurableLSN) or its appender is still
// parked here, never acknowledged-but-lost.
func (g *GroupLog) Waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue) + g.inFlight
}

// SetFlushHook installs fn to be called at the start of every flush
// with the batch size, on the leading appender's goroutine before the
// write. Chaos uses it to land a crash inside the group-commit window;
// fn must not wait on the GroupLog's appenders (crash the site from a
// fresh goroutine).
func (g *GroupLog) SetFlushHook(fn func(batch int)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hook = fn
}

// SetFlight attaches a flight recorder: every flush (and flush error)
// is recorded as a structured event under the given site label.
func (g *GroupLog) SetFlight(f *obs.Flight, site string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flight = f
	g.flightSite = site
}

// Instrument registers the group-commit metrics with reg under the
// given extra k,v label pairs (conventionally site=<id>):
// dvp_wal_flush_seconds (force-write latency per flush) and
// dvp_wal_group_batch (batch size, encoded as n microseconds in the
// duration histogram), plus flush/record counters.
func (g *GroupLog) Instrument(reg *obs.Registry, labels ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.flushLat = reg.Histogram("dvp_wal_flush_seconds", labels...)
	g.batchHist = reg.Histogram("dvp_wal_group_batch", labels...)
	g.flushes = reg.Counter("dvp_wal_group_flushes_total", labels...)
	g.records = reg.Counter("dvp_wal_group_records_total", labels...)
}

// Scan implements Log over the durable records.
func (g *GroupLog) Scan(from uint64, fn func(Record) error) error {
	return g.inner.Scan(from, fn)
}

// LastLSN implements Log (durable view).
func (g *GroupLog) LastLSN() uint64 { return g.inner.LastLSN() }

// Compact implements Log. Safe concurrently with flushing: the inner
// log serializes Compact against AppendBatch, and compaction only
// drops LSNs ≤ upto, which are already durable.
func (g *GroupLog) Compact(upto uint64) error { return g.inner.Compact(upto) }

// Close flushes every queued record, waits out a flush in progress,
// and closes the inner log. Appends after Close fail with ErrClosed;
// a second Close returns nil.
func (g *GroupLog) Close() error {
	g.mu.Lock()
	already := g.closed
	g.closed = true
	for len(g.queue) > 0 || g.flushing {
		if g.flushing {
			g.cond.Wait()
		} else {
			g.flushLocked()
		}
	}
	g.mu.Unlock()
	if already {
		return nil
	}
	return g.inner.Close()
}

// Inner exposes the wrapped log (harness audits and tests).
func (g *GroupLog) Inner() Log { return g.inner }
