package site

import (
	"time"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/wal"
)

// maxFastOps bounds the fixed-size scratch of the local-commit fast
// path; wider transactions take the slow path, whose per-transaction
// allocations they amortize anyway.
const maxFastOps = 8

// runFast is the local-commit fast path: the paper's §5 observation
// that "in case of write-only transactions, the initial steps of data
// redistribution can be ignored", pushed all the way down the
// implementation. A write-only transaction whose items all hold
// adequate local quota commits without building the waiter machinery,
// without any map or slice allocation, and without ever taking s.mu:
// per-item composed needs and deltas live in fixed arrays, the quota
// pre-check reads lock-free atomic hints, stripes are locked by
// bitmask, and the commit record is encoded into a pooled wire
// buffer.
//
// It returns nil to decline — wrong shape, hint miss, stale hint, or
// site down — and the caller falls through to the full protocol.
// Correctness never depends on the hints: after the stripes are held,
// the authoritative store values are re-checked, and a hint that lied
// high merely costs the fall-back. A hint that lies low only sends
// eligible traffic down the slow path.
//
// Lock order matches the slow path's commit phase: lifeMu.RLock ≺
// stripes ≺ ckptMu.RLock. lifeMu is taken FIRST and held from the
// liveness check through apply — taking a stripe before lifeMu would
// deadlock against Crash's fence (a pending lifeMu writer blocks new
// readers while a handler holding the read side waits on our stripe).
// Holding one read-side across check+append also gives the same
// crash atomicity as runSlow's sameEpoch: once Crash returns, no
// stale-epoch commit record can still reach the log.
func (s *Site) runFast(t *txn.Txn) *txn.Result {
	if s.cfg.DisableFastPath || len(t.Reads) > 0 || len(t.Ops) == 0 ||
		len(t.Ops) > maxFastOps || len(s.stripes) > 64 {
		return nil
	}

	// Fold the op list into per-item composed (need, delta) pairs in
	// fixed scratch — core's composite running-requirement rule,
	// without allocating a composite or a map.
	var (
		items  [maxFastOps]ident.ItemID
		needs  [maxFastOps]core.Value
		deltas [maxFastOps]core.Value
		n      int
	)
	for _, op := range t.Ops {
		idx := -1
		for i := 0; i < n; i++ {
			if items[i] == op.Item {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = n
			items[idx] = op.Item
			n++
		}
		if need := op.Op.Needs() - deltas[idx]; need > needs[idx] {
			needs[idx] = need
		}
		deltas[idx] += op.Op.Delta()
	}

	// Advisory gate: every item must look locally adequate. A missing
	// or stale-low hint routes to the slow path, which can
	// redistribute; no locks are held yet, so declining is free.
	for i := 0; i < n; i++ {
		if hv, ok := s.cfg.DB.HintValue(items[i]); !ok || hv < needs[i] {
			s.obsm.fastFallbacks.Inc()
			return nil
		}
	}

	start := s.cfg.Clock.Now()
	s.lifeMu.RLock()
	if s.epochUp.Load()&1 == 0 {
		s.lifeMu.RUnlock()
		s.obsm.fastFallbacks.Inc()
		return nil // down; runSlow reports SiteDown uniformly
	}

	tr := s.obsm.ring.Begin(s.obsm.site, t.Label)
	if tr != nil {
		tr.SetSpan(s.newSpan())
	}
	ts := s.lamport.Next()
	id := ts.Txn()
	tr.SetTS(uint64(ts))
	segStart := s.fastStep(tr, "admit", start)

	var mask uint64
	for i := 0; i < n; i++ {
		mask |= 1 << uint(s.stripeOf(items[i]))
	}
	s.lockStripeMask(mask)

	// Admission under the stripes — the same admitLocked the slow path
	// runs, here with needs: one Get per item serves both the
	// concurrency-control check and the authoritative quota re-check
	// (the stripes exclude every mutator of these items, so the values
	// cannot move under us).
	switch s.admitLocked(ts, items[:n], needs[:n]) {
	case admitCCRejected:
		s.unlockStripeMask(mask)
		s.lifeMu.RUnlock()
		return s.fastAbort(t, tr, start, ts, txn.StatusCCRejected)
	case admitShort:
		// The hint lied high. Release everything untouched and
		// let the slow path redistribute.
		s.unlockStripeMask(mask)
		s.lifeMu.RUnlock()
		s.obsm.fastFallbacks.Inc()
		tr.Finish("fast-fallback")
		return nil
	}
	segStart = s.fastStep(tr, "cc-check", segStart)

	if !s.lockAndStamp(ts, id, items[:n]) {
		s.unlockStripeMask(mask)
		s.lifeMu.RUnlock()
		s.obsm.flight.Recordf(s.obsm.site, "lock-conflict", "txn=%v label=%s items=%d", ts, t.Label, n)
		return s.fastAbort(t, tr, start, ts, txn.StatusLockConflict)
	}
	segStart = s.fastStep(tr, "lock", segStart)

	// Commit record actions in fixed scratch; zero net deltas drop out
	// exactly as in runSlow step 5.
	var actions [maxFastOps]wal.Action
	m := 0
	for i := 0; i < n; i++ {
		if deltas[i] != 0 {
			actions[m] = wal.Action{Item: items[i], Delta: deltas[i], SetTS: ts}
			m++
		}
	}

	// commitDurably with the stripes still held — the items' stripes
	// cover the written items, so this is the same atomic unit as
	// runSlow's step 5/6, through the same shared durability core
	// (pooled wire buffer, append + apply under ckptMu's read side).
	// actions is stack scratch; commitDurably only borrows it.
	lsn, err := s.commitDurably(ts, actions[:m])
	if err != nil {
		s.unlockStripeMask(mask)
		s.lifeMu.RUnlock()
		s.locks.ReleaseAll(id)
		s.redeliverDeferred(items[:n])
		return s.fastAbort(t, tr, start, ts, txn.StatusSiteDown)
	}
	segStart = s.fastStep(tr, "wal-flush", segStart)
	s.unlockStripeMask(mask)
	s.lifeMu.RUnlock()
	s.fastStep(tr, "apply", segStart)

	// Step-7 bookkeeping while the transaction's locks are still held:
	// every written item registers this commit on its flow vector.
	var widx [maxFastOps]uint64
	for i := 0; i < m; i++ {
		widx[i] = s.flow.writerCommit(actions[i].Item, s.cfg.ID)
	}
	s.locks.ReleaseAll(id)
	s.redeliverDeferred(items[:n])

	// Demand signal (negative deltas are consumption), map-free.
	if s.demand != nil && m > 0 {
		now := s.cfg.Clock.Now()
		for i := 0; i < m; i++ {
			if actions[i].Delta < 0 {
				s.demand.record(actions[i].Item, -actions[i].Delta, now)
			}
		}
	}

	// The observation maps are built only when someone listens — the
	// hook is the one consumer that genuinely needs them.
	if s.cfg.OnCommit != nil {
		deltaMap := make(map[ident.ItemID]core.Value, n)
		for i := 0; i < n; i++ {
			deltaMap[items[i]] = deltas[i]
		}
		writerIdx := make(map[ident.ItemID]uint64, m)
		for i := 0; i < m; i++ {
			writerIdx[actions[i].Item] = widx[i]
		}
		s.cfg.OnCommit(CommitInfo{
			TS: ts, Site: s.cfg.ID, Deltas: deltaMap,
			Reads:     map[ident.ItemID]core.Value{},
			WriterIdx: writerIdx, ReadVec: map[ident.ItemID]FlowVec{},
			Label: t.Label, CommitLSN: lsn,
		})
	}

	s.countOutcome(txn.StatusCommitted)
	s.obsm.fastCommits.Inc()
	res := &txn.Result{Status: txn.StatusCommitted, TS: ts}
	res.Latency = s.cfg.Clock.Now().Sub(start)
	s.obsm.observeTxn(t.Label, txn.StatusCommitted, res.Latency)
	tr.Finish(txn.StatusCommitted.String())
	return res
}

// fastStep records one protocol-step boundary of the fast path — the
// same step names a shortfall-free slow run emits, so traces and
// dvp_step_seconds keep one shape across both paths. A plain method
// instead of runSlow's closure: closures capture by reference and
// heap-allocate, which is exactly what this path exists to avoid.
func (s *Site) fastStep(tr *obs.TxnTrace, name string, segStart time.Time) time.Time {
	now := s.cfg.Clock.Now()
	s.obsm.observeStep(name, now.Sub(segStart))
	tr.Step(name, "")
	return now
}

// fastAbort finishes a fast-path transaction with a real decision
// (CCRejected, LockConflict or SiteDown) — identical accounting to
// runSlow's finish.
func (s *Site) fastAbort(t *txn.Txn, tr *obs.TxnTrace, start time.Time, ts tstamp.TS, status txn.Status) *txn.Result {
	res := &txn.Result{Status: status, TS: ts}
	res.Latency = s.cfg.Clock.Now().Sub(start)
	s.countOutcome(status)
	s.obsm.observeTxn(t.Label, status, res.Latency)
	tr.Finish(status.String())
	return res
}
