package main

import (
	"math/rand/v2"
	"sync"
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/txn"
)

var (
	reserveOp core.Op = core.Decr{M: 1}
	cancelOp  core.Op = core.Incr{M: 1}
)

// client is one closed-loop load generator: it sends its next request
// only after the previous one has been decided. Its stream and its
// tally of committed deltas live across phases.
type client struct {
	id     int // index: which sites and items the workload gives it
	r      *rand.Rand
	deltas []core.Value // per item: net effect of this client's commits
	t      txn.Txn
	ops    [1]txn.ItemOp
	reads  [1]ident.ItemID
}

func newClients(seed int64) []*client {
	cs := make([]*client, numClients)
	for i := range cs {
		cs[i] = &client{id: i, r: clientRand(seed, i), deltas: make([]core.Value, numItems)}
	}
	return cs
}

// subWindows splits a timed phase for the latency quantiles: each
// reported quantile is the median of the sub-windows' quantiles, so one
// burst of host noise moves it less than it moves the pooled quantile.
const subWindows = 10

// phaseStats is what one client saw during one phase.
type phaseStats struct {
	start time.Time     // when the phase began
	slice time.Duration // sub-window length (0: one sub-window)
	lat   [numKinds][subWindows]hist
	// done counts, per sub-window, the commits completed in it.
	done [subWindows]uint64

	requests, committed, failed         uint64
	attempts, asked, timeouts, conflict uint64
	stall, busy                         time.Duration
	stealShare                          float64 // host CPU stolen during the phase
}

// n counts the requests of kind k.
func (p *phaseStats) n(k kind) uint64 {
	var n uint64
	for w := range p.lat[k] {
		n += p.lat[k][w].count()
	}
	return n
}

func (p *phaseStats) merge(o *phaseStats) {
	for k := range p.lat {
		for w := range p.lat[k] {
			p.lat[k][w].merge(&o.lat[k][w])
		}
	}
	for w := range p.done {
		p.done[w] += o.done[w]
	}
	p.requests += o.requests
	p.committed += o.committed
	p.failed += o.failed
	p.attempts += o.attempts
	p.asked += o.asked
	p.timeouts += o.timeouts
	p.conflict += o.conflict
	p.stall += o.stall
	p.busy += o.busy
}

// rates is, per sub-window, the commits completed in it per second.
func (p *phaseStats) rates() []float64 {
	rates := make([]float64, subWindows)
	for w, n := range p.done {
		rates[w] = float64(n) / p.slice.Seconds()
	}
	return rates
}

// do runs one request of wl on c: up to maxAttempts Run calls, timed
// from the first attempt to the final decision. A request that gives
// up is counted in the latency of its kind at the time it gave up.
func (cl *client) do(c *cluster, wl *workload, st *phaseStats, tr *tracer) {
	var q request
	wl.next(cl.r, cl.id, &q)
	s := c.sites[q.site]
	k := kindWrite
	if q.read {
		k = kindRead
		cl.reads[0] = c.items[q.item]
		cl.t = txn.Txn{Reads: cl.reads[:]}
	} else {
		op := reserveOp
		if q.delta > 0 {
			op = cancelOp
		}
		cl.ops[0] = txn.ItemOp{Item: c.items[q.item], Op: op}
		cl.t = txn.Txn{Ops: cl.ops[:]}
	}

	start := time.Now()
	at := start
	var res *txn.Result
	for range maxAttempts {
		var traceStart int64
		if tr != nil {
			traceStart = tr.now()
		}
		res = s.Run(&cl.t)
		end := time.Now()
		if tr != nil {
			tr.runDone(s.ID(), res.TS, res.Committed(), traceStart, tr.now()-traceStart)
		}
		st.attempts++
		if res.RequestsSent > 0 {
			st.asked++
			if k == kindWrite {
				k = kindPull
			}
		}
		switch res.Status {
		case txn.StatusTimeout:
			st.timeouts++
			st.stall += end.Sub(at)
		case txn.StatusLockConflict:
			st.conflict++
		}
		at = end
		if res.Committed() {
			break
		}
	}
	lat := at.Sub(start)
	st.busy += lat
	st.requests++
	w, wEnd := 0, 0
	if st.slice > 0 {
		w = min(int(start.Sub(st.start)/st.slice), subWindows-1)
		wEnd = int(at.Sub(st.start) / st.slice)
	}
	st.lat[k][w].record(int64(lat))
	if res.Committed() {
		if wEnd < subWindows {
			st.done[wEnd]++
		}
		st.committed++
		cl.deltas[q.item] += q.delta
	} else {
		st.failed++
	}
}

// drive runs every client concurrently, each until the deadline (if
// count is 0) or for count requests, and returns the merged stats and
// the wall time from start until the last client stopped.
func drive(c *cluster, wl *workload, cs []*client, deadline time.Time, count int, tr *tracer) (*phaseStats, time.Duration) {
	stats := make([]phaseStats, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range stats {
		stats[i].start = start
		if count == 0 {
			stats[i].slice = deadline.Sub(start) / subWindows
		}
	}
	for i, cl := range cs {
		wg.Add(1)
		go func(cl *client, st *phaseStats) {
			defer wg.Done()
			if count > 0 {
				for range count {
					cl.do(c, wl, st, tr)
				}
				return
			}
			for time.Now().Before(deadline) {
				cl.do(c, wl, st, tr)
			}
		}(cl, &stats[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &phaseStats{start: start, slice: stats[0].slice}
	for i := range stats {
		total.merge(&stats[i])
	}
	return total, elapsed
}

// observedDeltas sums the committed deltas of every client.
func observedDeltas(cs []*client) []core.Value {
	out := make([]core.Value, numItems)
	for _, cl := range cs {
		for k, d := range cl.deltas {
			out[k] += d
		}
	}
	return out
}
