package site

import (
	"fmt"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// Run executes one transaction entirely at this site. Write-only
// transactions whose items all look locally adequate take the
// zero-allocation local-commit fast path (exec_fast.go); everything
// else — full reads, shortfalls, wide transactions, stale quota
// hints — runs the full §5 protocol via runSlow. Both paths block the
// calling goroutine for at most the transaction's timeout plus local
// processing and always return a decision: the protocol is
// non-blocking by construction.
func (s *Site) Run(t *txn.Txn) *txn.Result {
	if res := s.runFast(t); res != nil {
		return res
	}
	return s.runSlow(t)
}

// runSlow is the paper's §5 seven-step protocol, in full.
func (s *Site) runSlow(t *txn.Txn) *txn.Result {
	start := s.cfg.Clock.Now()
	tr := s.obsm.ring.Begin(s.obsm.site, t.Label)
	var rootSpan uint64
	if tr != nil {
		rootSpan = s.newSpan()
		tr.SetSpan(rootSpan)
	}
	// step records one protocol-step boundary: the trace step plus its
	// segment duration into dvp_step_seconds{step=...}. Callers format
	// a detail only when tr is live; untraced commits pass "" and so
	// pay no fmt boxing.
	segStart := start
	step := func(name, detail string) {
		now := s.cfg.Clock.Now()
		s.obsm.observeStep(name, now.Sub(segStart))
		segStart = now
		tr.Step(name, detail)
	}
	res := &txn.Result{}
	finish := func(status txn.Status) *txn.Result {
		res.Status = status
		res.Latency = s.cfg.Clock.Now().Sub(start)
		s.countOutcome(status)
		s.obsm.observeTxn(t.Label, status, res.Latency)
		tr.Finish(status.String())
		return res
	}

	epoch, up := s.currentEpoch()
	if !up {
		return finish(txn.StatusSiteDown)
	}

	// Draw TS(t): timestamp and identity in one (§6.1).
	ts := s.lamport.Next()
	res.TS = ts
	id := ts.Txn()
	items := t.Items()
	tr.SetTS(uint64(ts))
	var detail string
	if tr != nil {
		detail = fmt.Sprintf("items=%d", len(items))
	}
	step("admit", detail)

	// Step 1 — atomically lock the local values of A(t), with the
	// scheme's admission check, stamping under Conc1. The stripes
	// covering A(t) make check+lock+stamp one atomic step against
	// message handling on those items; transactions on disjoint
	// stripes admit concurrently. No quota check here — a shortfall
	// redistributes in step 2 instead of aborting, so needs is nil.
	unlock := s.lockStripesFor(items)
	if s.admitLocked(ts, items, nil) != admitOK {
		unlock()
		return finish(txn.StatusCCRejected)
	}
	step("cc-check", "")
	if !s.lockAndStamp(ts, id, items) {
		unlock()
		s.obsm.flight.Recordf(s.obsm.site, "lock-conflict", "txn=%v label=%s items=%d", ts, t.Label, len(items))
		return finish(txn.StatusLockConflict)
	}
	step("lock", "")
	unlock()

	// LIFO: locks release first, then parked inbound Vm on these items
	// get their redelivery shot at the freshly-unlocked window.
	defer s.redeliverDeferred(items)
	defer s.locks.ReleaseAll(id)

	// Step 2 — determine inadequate items and send requests.
	needs := t.Needs()
	shortfall := make(map[ident.ItemID]core.Value)
	for item, need := range needs {
		if have := s.cfg.DB.Value(item); have < need {
			shortfall[item] = need - have
		}
	}
	if len(shortfall) > 0 || len(t.Reads) > 0 {
		// Park in the waiter table: the transaction's shard is the only
		// lock registration touches, and the epoch tag lets Crash fail
		// exactly the waiters of the epoch it ends (waiters.go).
		w := newWaiter(id, ts, epoch, needs, t.Reads)
		s.waiterTab.add(w)
		defer s.waiterTab.remove(id)

		var tctx wire.TraceCtx
		if rootSpan != 0 {
			tctx = wire.TraceCtx{Origin: s.cfg.ID, TS: ts, Span: rootSpan}
		}
		res.RequestsSent = s.sendRequests(ts, shortfall, t.Reads, t.Ask, tctx)
		if tr != nil {
			detail = fmt.Sprintf("requests=%d policy=%v", res.RequestsSent, t.Ask)
		}
		step("ask", detail)

		// Step 3 — await the requisite Vm or the timeout.
		timeout := t.Timeout
		if timeout <= 0 {
			timeout = s.cfg.DefaultTimeout
		}
		deadline := s.cfg.Clock.After(timeout)
		for !s.satisfied(w) {
			select {
			case <-w.notify:
				if !s.sameEpoch(epoch) {
					return finish(txn.StatusSiteDown)
				}
			case <-deadline:
				if !s.sameEpoch(epoch) {
					return finish(txn.StatusSiteDown)
				}
				// §5 step 3: "declare an abort and then release
				// the locks". Quota already received stays — the
				// aborted transaction degenerates to an Rds
				// transaction (§6). The residual shortfall feeds
				// the demand tracker: unmet need is the strongest
				// rebalancing signal there is.
				s.recordDeficit(w.needs)
				res.VmAccepted = w.acceptedCount()
				if tr != nil {
					detail = fmt.Sprintf("accepted=%d", res.VmAccepted)
				}
				step("vm-accept", detail)
				s.obsm.flight.Recordf(s.obsm.site, "txn-timeout", "txn=%v label=%s accepted=%d", ts, t.Label, res.VmAccepted)
				return finish(txn.StatusTimeout)
			}
		}
		res.VmAccepted = w.acceptedCount()
		if tr != nil {
			detail = fmt.Sprintf("accepted=%d", res.VmAccepted)
		}
		step("vm-accept", detail)
	}

	// Step 4 — perform the computation: apply the operators in order
	// to the (now adequate) local values.
	working := make(map[ident.ItemID]core.Value)
	for _, item := range items {
		working[item] = s.cfg.DB.Value(item)
	}
	for _, op := range t.Ops {
		nv, ok := op.Op.Apply(working[op.Item])
		if !ok {
			// Cannot happen while we hold the locks and satisfied()
			// held; treat defensively as a timeout-class abort.
			return finish(txn.StatusTimeout)
		}
		working[op.Item] = nv
	}
	reads := make(map[ident.ItemID]core.Value, len(t.Reads))
	for _, item := range t.Reads {
		reads[item] = s.cfg.DB.Value(item)
	}
	res.Reads = reads

	// Step 5 — write the commit record; its stability commits t.
	deltas := t.Deltas()
	actions := make([]wal.Action, 0, len(deltas))
	for _, item := range items {
		d, ok := deltas[item]
		if !ok || d == 0 {
			continue
		}
		actions = append(actions, wal.Action{Item: item, Delta: d, SetTS: ts})
	}
	// The epoch check and the append must be one unit against Crash:
	// lifeMu's fence guarantees that once Crash returns, no stale-epoch
	// commit record can still reach the log — recovery's scan would
	// miss it and could reissue its timestamp. commitDurably holds
	// ckptMu's read side across the append+apply pair (atomic against
	// Checkpoint's cut); the written items' stripes, re-acquired here,
	// keep append+apply atomic per item against the message handlers
	// (the store's page-LSN idempotence and group commit's batched
	// wakeups demand same-item records applied in LSN order).
	written := make([]ident.ItemID, 0, len(actions))
	for _, a := range actions {
		written = append(written, a.Item)
	}
	s.lifeMu.RLock()
	if !s.sameEpoch(epoch) {
		s.lifeMu.RUnlock()
		return finish(txn.StatusSiteDown)
	}
	unlockW := s.lockStripesFor(written)
	lsn, err := s.commitDurably(ts, actions)
	if err != nil {
		unlockW()
		s.lifeMu.RUnlock()
		return finish(txn.StatusSiteDown)
	}
	if tr != nil {
		detail = fmt.Sprintf("lsn=%d actions=%d", lsn, len(actions))
	}
	step("wal-flush", detail)
	unlockW()
	s.lifeMu.RUnlock()
	// Step 6 happened inside commitDurably: apply — the shared
	// durability core both paths funnel through.
	step("apply", "")

	// Step 7 — locks released by the deferred ReleaseAll. Flow
	// instrumentation records first, while the locks are still held:
	// written items register this transaction as their site's next
	// writer; fully-read items snapshot the merged observation vector
	// (every commit updates the vectors whether or not anyone
	// listens — grants stamp them onto outgoing value).
	writerIdx := make(map[ident.ItemID]uint64, len(deltas))
	readVec := make(map[ident.ItemID]FlowVec, len(reads))
	for _, item := range items {
		if hasRead(reads, item) {
			readVec[item] = s.flow.snapshot(item)
		}
		if d, wrote := deltas[item]; wrote && d != 0 {
			writerIdx[item] = s.flow.writerCommit(item, s.cfg.ID)
		}
	}
	s.recordConsumption(deltas)
	if s.cfg.OnCommit != nil {
		s.cfg.OnCommit(CommitInfo{
			TS: ts, Site: s.cfg.ID, Deltas: deltas, Reads: reads,
			WriterIdx: writerIdx, ReadVec: readVec, Label: t.Label,
			CommitLSN: lsn,
		})
	}
	return finish(txn.StatusCommitted)
}

// sendRequests dispatches the §5 step-2 requests: full-read gathers to
// every peer, shortfall requests per the ask policy. Returns the
// number of requests sent.
func (s *Site) sendRequests(ts tstamp.TS, shortfall map[ident.ItemID]core.Value, reads []ident.ItemID, ask txn.AskPolicy, tctx wire.TraceCtx) int {
	peers := s.peersExceptSelf()
	sent := 0
	for _, item := range reads {
		for _, p := range peers {
			s.send(p, &wire.Request{Txn: ts, Item: item, FullRead: true, Trace: tctx})
			s.obsm.forPeer(p).asksSent.Inc()
			sent++
		}
	}
	if len(shortfall) > 0 {
		fan := ask.Fanout(len(peers))
		if fan <= 0 {
			fan = len(peers)
		}
		// Rotate the starting peer so AskOne/AskTwo spread load.
		startAt := int(s.askCursor.Add(1) - 1)
		for item, want := range shortfall {
			for k := 0; k < fan && k < len(peers); k++ {
				p := peers[(startAt+k)%len(peers)]
				// Under AskAll every peer is asked for the full
				// shortfall; with narrower fanouts likewise — the
				// exact split is the granting side's business.
				s.send(p, &wire.Request{Txn: ts, Item: item, Want: want, Trace: tctx})
				s.obsm.forPeer(p).asksSent.Inc()
				sent++
			}
		}
	}
	s.stats.requestsSent.Add(uint64(sent))
	return sent
}

// satisfied is the §5 step-3/4 gate: every op item has adequate local
// quota, and every full read has gathered all of Π⁻¹(d): a response
// from every peer and no Vm of ours still carrying the item away.
func (s *Site) satisfied(w *waiter) bool {
	for item, need := range w.needs {
		if s.cfg.DB.Value(item) < need {
			return false
		}
	}
	if len(w.reads) == 0 {
		return true
	}
	for item := range w.reads {
		if s.vm.HasOutstanding(item) {
			return false
		}
	}
	return w.allResponded(s.peersExceptSelf())
}

func hasRead(reads map[ident.ItemID]core.Value, item ident.ItemID) bool {
	_, ok := reads[item]
	return ok
}

func (s *Site) countOutcome(status txn.Status) {
	switch status {
	case txn.StatusCommitted:
		s.stats.committed.Add(1)
	case txn.StatusLockConflict:
		s.stats.abortLockConflict.Add(1)
	case txn.StatusCCRejected:
		s.stats.abortCCRejected.Add(1)
	case txn.StatusTimeout:
		s.stats.abortTimeout.Add(1)
	case txn.StatusSiteDown:
		s.stats.abortSiteDown.Add(1)
	}
}
