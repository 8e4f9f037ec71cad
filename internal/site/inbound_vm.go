package site

import (
	"fmt"

	"dvp/internal/ident"
	"dvp/internal/obs"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// handleVm implements Vm acceptance (§4.2, §5): exactly-once crediting
// of the carried value, by an Rds transaction when the item is free,
// by the waiting transaction itself when it holds the lock, and
// deferral (ignore; retransmission will return) when an unrelated
// transaction holds it.
func (s *Site) handleVm(from ident.SiteID, m *wire.Vm) {
	if s.processVm(from, m) {
		s.send(from, &wire.VmAck{UpTo: s.vm.AckFor(from)})
	}
}

// handleVmBatch accepts each carried Vm independently, then sends one
// cumulative ack for the whole batch — the receiving half of Vm
// piggybacking (one envelope, many Vm; one ack envelope back).
func (s *Site) handleVmBatch(from ident.SiteID, b *wire.VmBatch) {
	ack := false
	for i := range b.Vms {
		if s.processVm(from, &b.Vms[i]) {
			ack = true
		}
	}
	if ack {
		s.send(from, &wire.VmAck{UpTo: s.vm.AckFor(from)})
	}
}

// processVm is the acceptance path for one Vm (§4.2, §5). It reports
// whether an ack is owed (accepted or duplicate); a deferral (item
// locked by a non-waiting transaction) owes none — retransmission
// will return. A waiting holder is found through its waiter shard
// (lock-free of anything site-wide); its progress fields are updated
// under the waiter's own lock.
func (s *Site) processVm(from ident.SiteID, m *wire.Vm) bool {
	hopStart := s.cfg.Clock.Now()
	// A traced Vm grows a vm-accept span here: the credit half of the
	// redistribution, parented on the sender's rds-create span.
	var hop *obs.TxnTrace
	if m.Trace.Valid() && s.obsm.ring != nil {
		hop = s.obsm.ring.BeginSpan(s.obsm.site, "vm-accept",
			m.Trace.Origin.String(), uint64(m.Trace.TS), s.newSpan(), m.Trace.Span)
	}

	stripe := &s.stripes[s.stripeOf(m.Item)]
	stripe.Lock()

	if !s.vm.ShouldAccept(from, m.Seq) {
		stripe.Unlock()
		s.stats.vmDuplicates.Add(1)
		s.obsm.forPeer(from).vmDups.Inc()
		hop.Finish("duplicate")
		// Duplicate: re-ack so the sender can retire it.
		return true
	}

	var w *waiter
	holder := s.locks.Holder(m.Item)
	if holder != ident.NoTxn {
		w = s.waiterTab.lookup(holder)
		if w == nil || m.ReqTxn != w.ts {
			// Locked by a transaction not in its waiting phase, or a
			// Vm not addressed to the waiting holder (an unsolicited
			// rebalancer credit, or a grant for an older incarnation
			// of the request): "if it is locked, the message can be
			// ignored; it will eventually be sent again anyway"
			// (§4.2). Consuming a foreign credit at the waiter's
			// timestamp would splice it into that transaction's
			// serial position even though the matching deduct
			// serialized elsewhere — the waiter's full read would
			// observe value its serial position cannot explain. The
			// Vm is parked and redelivered when the lock releases.
			s.deferVm(from, m)
			stripe.Unlock()
			hop.Finish("deferred")
			return false
		}
	}

	// Accept: log first (the record is the acceptance), then credit.
	rec := &wal.VmAcceptRec{
		From:    from,
		Seq:     m.Seq,
		Actions: []wal.Action{{Item: m.Item, Delta: m.Amount}},
	}
	var creditTS tstamp.TS
	if w != nil {
		// The waiting transaction consumes the credit: it serializes
		// inside that transaction, at its timestamp.
		creditTS = w.ts
	} else {
		// Accepting into a free item is an Rds transaction of its own
		// (§6): it draws a fresh timestamp and, under Conc1, stamps the
		// value. Without the stamp a later full read could be admitted
		// at a timestamp below the credit it already observed — ordered
		// before it in the serial history, yet seeing its effect.
		creditTS = s.lamport.Next()
		if s.policy.StampOnLock() {
			rec.Actions[0].SetTS = creditTS
		}
	}
	if m.Amount == 0 {
		// Zero-value Vm (a full-read "I hold nothing" response)
		// still needs the acceptance record for dedup state.
		rec.Actions = nil
	}
	lsn, err := s.vmAcceptDurably(from, rec)
	if err != nil {
		stripe.Unlock()
		hop.Finish("log-error")
		return false
	}
	if hop != nil {
		hop.Step("wal-flush", fmt.Sprintf("lsn=%d amount=%d seq=%d", lsn, m.Amount, m.Seq))
	}
	s.flow.merge(m.Item, flowVecFromEntries(m.FlowVec))
	stripe.Unlock()
	hop.Step("apply", "")

	s.reportRds(creditTS, m.Item, m.Amount)
	s.obsm.observeStep("vm-apply", s.cfg.Clock.Now().Sub(hopStart))
	s.obsm.flight.Recordf(s.obsm.site, "vm-accept", "from=%v item=%s amount=%d seq=%d", from, m.Item, m.Amount, m.Seq)
	s.obsm.forPeer(from).vmAccepted.Inc()
	s.stats.vmAccepted.Add(1)
	if w != nil {
		w.noteAccept(m.Item, from)
		w.wake()
	}
	hop.Finish("accepted")
	return true
}

// deferredVm is one parked inbound Vm awaiting its item's unlock.
type deferredVm struct {
	from ident.SiteID
	vm   wire.Vm
}

// maxDeferredPerItem bounds parked Vm per item; beyond it the sender's
// retransmission is the delivery path, as in plain §4.2.
const maxDeferredPerItem = 16

// deferVm parks a Vm whose item was locked, for redelivery on unlock.
// Duplicates (a retransmission racing the parked copy) collapse.
func (s *Site) deferVm(from ident.SiteID, m *wire.Vm) {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	q := s.deferredVm[m.Item]
	for i := range q {
		if q[i].from == from && q[i].vm.Seq == m.Seq {
			return
		}
	}
	if len(q) >= maxDeferredPerItem {
		return
	}
	s.deferredVm[m.Item] = append(q, deferredVm{from: from, vm: *m})
	s.obsm.flight.Recordf(s.obsm.site, "vm-defer", "from=%v item=%s seq=%d parked=%d", from, m.Item, m.Seq, len(q)+1)
}

// redeliverDeferred re-runs the acceptance path for Vm parked on the
// given items. Called after a transaction releases its locks — the
// parked Vm land in the unlock window instead of waiting out the
// sender's retransmit interval (which an item locked back-to-back may
// never overlap). A redelivered Vm that finds the item locked again
// simply parks again.
func (s *Site) redeliverDeferred(items []ident.ItemID) {
	var batch []deferredVm
	s.defMu.Lock()
	for _, item := range items {
		if q := s.deferredVm[item]; len(q) > 0 {
			batch = append(batch, q...)
			delete(s.deferredVm, item)
		}
	}
	s.defMu.Unlock()
	if len(batch) == 0 {
		return
	}
	// Mirror the network entry point: the lifeMu fence and up-check
	// keep redelivery inside the site's lifetime (exec's own lifeMu
	// window has already closed by the time its unlock defer runs).
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if !s.Up() {
		return
	}
	s.obsm.flight.Recordf(s.obsm.site, "vm-redeliver", "count=%d", len(batch))
	for i := range batch {
		s.handleVm(batch[i].from, &batch[i].vm)
	}
}
