package site

import (
	"math/bits"

	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/tstamp"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// This file is the admission + durability layer: the per-item stripes
// (the only lock for state mutation), the scheme's admission check,
// and the three durable mutation entry points — commitDurably,
// vmCreateDurably, vmAcceptDurably — that every path shares. The fast
// path (exec_fast.go), the slow path (exec.go), the message handlers
// (inbound_*.go) and proactive Rds (rds.go) all funnel through here;
// none of them touches the log or store any other way.

// stripeOf maps an item to its admission stripe (FNV-1a).
func (s *Site) stripeOf(item ident.ItemID) int {
	if len(s.stripes) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(item); i++ {
		h ^= uint32(item[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.stripes)))
}

// lockStripesFor acquires the stripes covering items (deduplicated,
// ascending — the deadlock-free total order) and returns the release.
func (s *Site) lockStripesFor(items []ident.ItemID) func() {
	if len(s.stripes) == 1 {
		s.stripes[0].Lock()
		return s.stripes[0].Unlock
	}
	need := make([]bool, len(s.stripes))
	for _, it := range items {
		need[s.stripeOf(it)] = true
	}
	var held []int
	for i := range s.stripes {
		if need[i] {
			s.stripes[i].Lock()
			held = append(held, i)
		}
	}
	return func() {
		for _, i := range held {
			s.stripes[i].Unlock()
		}
	}
}

// lockAllStripes takes every stripe in ascending order (Checkpoint's
// whole-site quiescent point) and returns the release.
func (s *Site) lockAllStripes() func() {
	for i := range s.stripes {
		s.stripes[i].Lock()
	}
	return func() {
		for i := range s.stripes {
			s.stripes[i].Unlock()
		}
	}
}

// lockStripeMask / unlockStripeMask acquire and release the stripes in
// a ≤64-stripe bitmask in ascending index order — the same deadlock-
// free total order lockStripesFor uses, without its slice bookkeeping.
func (s *Site) lockStripeMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s.stripes[bits.TrailingZeros64(m)].Lock()
	}
}

func (s *Site) unlockStripeMask(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s.stripes[bits.TrailingZeros64(m)].Unlock()
	}
}

// admitVerdict is admitLocked's decision.
type admitVerdict int

const (
	admitOK admitVerdict = iota
	// admitCCRejected: some item's timestamp fails the scheme's
	// AllowLock test — a real CC abort under either path.
	admitCCRejected
	// admitShort: some item's authoritative quota is below its need —
	// only reported when needs is non-nil (the fast path's hint
	// re-check; the slow path redistributes instead of aborting).
	admitShort
)

// admitLocked runs the scheme's admission check over items under their
// held stripes: the per-item AllowLock test, plus (when needs is
// non-nil) the authoritative quota re-check the fast path's advisory
// hints require. One DB.Get per item serves both. Caller holds every
// item's stripe; the stripes exclude all mutators of these items, so
// the values cannot move between check and the caller's lock+stamp.
func (s *Site) admitLocked(ts tstamp.TS, items []ident.ItemID, needs []core.Value) admitVerdict {
	for i, item := range items {
		it, _ := s.cfg.DB.Get(item)
		if !s.policy.AllowLock(ts, it.TS) {
			return admitCCRejected
		}
		if needs != nil && it.Val < needs[i] {
			return admitShort
		}
	}
	return admitOK
}

// lockAndStamp takes the transaction's no-wait locks and, under a
// StampOnLock scheme (Conc1), stamps the items — §5 step 1's
// lock+stamp half, shared by both execution paths. Caller holds the
// items' stripes.
func (s *Site) lockAndStamp(ts tstamp.TS, id ident.TxnID, items []ident.ItemID) bool {
	if !s.locks.TryLockAll(id, items) {
		return false
	}
	if s.policy.StampOnLock() {
		for _, item := range items {
			s.cfg.DB.SetTS(item, ts)
		}
	}
	return true
}

// logAppend is the site-internal append path: it writes to the stable
// log and feeds the automatic checkpointer's growth thresholds. All
// normal-processing appends (commit, Vm create/accept) go through it;
// Checkpoint itself appends directly so a checkpoint record never
// re-arms the trigger it just cleared.
func (s *Site) logAppend(kind wal.RecordKind, data []byte) (uint64, error) {
	lsn, err := s.cfg.Log.Append(kind, data)
	if err == nil {
		s.noteAppend(int64(len(data)))
	}
	return lsn, err
}

// commitDurably is the shared §5 step-5/6 core: append the commit
// record (its stability commits the transaction), then apply the
// actions. There is no separate step-6 "applied" record: the store is
// in memory and rebuilt by redo, which the per-item applied LSN makes
// idempotent, so such a record would bound no recovery work. The
// record encodes into a pooled wire buffer; the Log contract (data
// borrowed, never retained) lets it return to the pool immediately.
// The caller must hold lifeMu's read side (crash atomicity: once
// Crash returns, no stale-epoch commit record can still reach the
// log) and the stripes covering every action's item (the store's
// page-LSN idempotence needs same-item records applied in LSN order;
// group commit releases a whole batch of appenders at once, so
// without the stripes a lower-LSN commit could apply after a
// higher-LSN Vm record on the same item and be silently skipped).
// ckptMu's read side is taken here, keeping the append+apply pair
// atomic against Checkpoint's cut. The actions slice is borrowed for
// the call — the fast path passes stack scratch.
func (s *Site) commitDurably(ts tstamp.TS, actions []wal.Action) (uint64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	w := wire.GetWriter()
	rec := wal.CommitRec{Txn: ts, Actions: actions}
	rec.EncodeTo(w)
	lsn, err := s.logAppend(wal.RecCommit, w.Bytes())
	wire.PutWriter(w)
	if err != nil {
		return 0, err
	}
	if _, err := s.cfg.DB.ApplyAll(lsn, actions); err != nil {
		// Protocol invariant broken; surface loudly in development.
		panic("site: committed actions failed to apply: " + err.Error())
	}
	return lsn, nil
}

// vmCreateDurably is the durability half of every Vm creation — a
// request honored (inbound_request.go) or a proactive Rds transfer
// (rds.go): log the [database-actions, message-sequence] record,
// register the outgoing Vm for retransmission, apply the deduct.
// Caller holds lifeMu's read side and the item's stripe.
func (s *Site) vmCreateDurably(rec *wal.VmCreateRec) (uint64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	lsn, err := s.logAppend(wal.RecVmCreate, rec.Encode())
	if err != nil {
		return 0, err
	}
	s.vm.Created(rec.Msgs)
	if _, err := s.cfg.DB.ApplyAll(lsn, rec.Actions); err != nil {
		panic("site: vm-create actions failed to apply: " + err.Error())
	}
	return lsn, nil
}

// vmAcceptDurably is the durability half of Vm acceptance: log the
// acceptance record (the record is the acceptance), mark the channel
// cursor, apply the credit. Caller holds lifeMu's read side and the
// item's stripe.
func (s *Site) vmAcceptDurably(from ident.SiteID, rec *wal.VmAcceptRec) (uint64, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	lsn, err := s.logAppend(wal.RecVmAccept, rec.Encode())
	if err != nil {
		return 0, err
	}
	s.vm.MarkAccepted(from, rec.Seq)
	if _, err := s.cfg.DB.ApplyAll(lsn, rec.Actions); err != nil {
		panic("site: vm-accept actions failed to apply: " + err.Error())
	}
	return lsn, nil
}
