package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/site"
	"dvp/internal/store"
	"dvp/internal/tcpnet"
	"dvp/internal/txn"
	"dvp/internal/wal"
	"dvp/internal/wire"
)

// createChunk is how many item shares one set-up commit record carries.
const createChunk = 500

// cluster is one assembled 4-site DvP system over loopback TCP, built
// the way cmd/dvpnode builds a node: tcpnet.New → wal.OpenFileLog
// wrapped in wal.NewGroupLog → store.New → site.New. Every site.Config
// knob is left at its default.
type cluster struct {
	dir   string
	sites []*site.Site
	eps   []*tcpnet.Endpoint
	logs  []wal.Log
	// items are the workload's items followed by one warm-up item per
	// site; initial holds each one's starting total across the sites.
	items   []ident.ItemID
	initial []core.Value
}

// assemble builds, starts and warms a cluster for wl under dir. With a
// tracer, the WAL, endpoint and cc seams are wrapped (see trace.go).
func assemble(dir string, wl *workload, tr *tracer) (c *cluster, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c = &cluster{dir: dir}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	peers := make([]ident.SiteID, numSites)
	addrs := make(map[ident.SiteID]string, numSites)
	for i := range numSites {
		peers[i] = ident.SiteID(i + 1)
		ep, err := tcpnet.New(tcpnet.Config{Site: peers[i], Listen: "127.0.0.1:0"})
		if err != nil {
			return c, err
		}
		c.eps = append(c.eps, ep)
		addrs[peers[i]] = ep.Addr()
	}
	for _, ep := range c.eps {
		ep.SetPeers(addrs)
	}

	for i := range numItems {
		c.items = append(c.items, ident.ItemID(fmt.Sprintf("item/%05d", i)))
		var total core.Value
		for s := range numSites {
			total += wl.quota(i, s)
		}
		c.initial = append(c.initial, total)
	}
	for s := range numSites {
		c.items = append(c.items, warmItem(s))
		c.initial = append(c.initial, numSites)
	}

	for i := range numSites {
		fl, err := wal.OpenFileLog(filepath.Join(dir, fmt.Sprintf("site%d.wal", i+1)), wal.FileLogOptions{})
		if err != nil {
			return c, err
		}
		var inner wal.Log = fl
		if tr != nil {
			inner = &tracedFileLog{FileLog: fl, t: tr, site: peers[i]}
		}
		var log wal.Log = wal.NewGroupLog(inner, wal.GroupCommitOptions{})
		if tr != nil {
			log = &tracedLog{Log: log, t: tr, site: peers[i]}
		}
		c.logs = append(c.logs, log)

		var ep wire.Endpoint = c.eps[i]
		policy := cc.New(cc.Conc1)
		if tr != nil {
			ep = &tracedEndpoint{Endpoint: ep, t: tr}
			policy = tracedPolicy{Policy: policy, t: tr}
		}
		db := store.New()
		s, err := site.New(site.Config{ID: peers[i], Peers: peers, Log: log, DB: db, Endpoint: ep, CC: policy})
		if err != nil {
			return c, err
		}
		if err := createShares(log, db, c.items, func(k int) core.Value {
			if k >= numItems {
				return 1
			}
			return wl.quota(k, i)
		}); err != nil {
			return c, err
		}
		c.sites = append(c.sites, s)
	}
	for _, s := range c.sites {
		s.Start()
	}
	return c, c.warm()
}

func warmItem(s int) ident.ItemID { return ident.ItemID(fmt.Sprintf("warm/%d", s+1)) }

// createShares installs one site's local shares as logged commits, as
// dvpnode's -create does: a real process rebuilds its store from the
// WAL, so the initial share must itself be a logged action.
func createShares(log wal.Log, db *store.Durable, items []ident.ItemID, share func(k int) core.Value) error {
	for lo := 0; lo < len(items); lo += createChunk {
		rec := &wal.CommitRec{}
		for k := lo; k < min(lo+createChunk, len(items)); k++ {
			rec.Actions = append(rec.Actions, wal.Action{Item: items[k], Delta: share(k)})
		}
		lsn, err := log.Append(wal.RecCommit, rec.Encode())
		if err != nil {
			return err
		}
		if _, err := db.ApplyAll(lsn, rec.Actions); err != nil {
			return err
		}
	}
	return nil
}

// warm dials every peer link before anything is timed: each site
// fully reads its own warm-up item, which sends a Request to every peer
// and draws a Vm back from each.
func (c *cluster) warm() error {
	for i, s := range c.sites {
		t := &txn.Txn{Reads: []ident.ItemID{warmItem(i)}}
		var res *txn.Result
		for range maxAttempts {
			if res = s.Run(t); res.Committed() {
				break
			}
		}
		if !res.Committed() {
			return fmt.Errorf("warm-up read at site %d: %v", i+1, res.Status)
		}
	}
	return c.quiesce()
}

// quiesce waits until no site has had an unacknowledged Vm for 5ms
// running, so no late Request or Vm is still being handled.
func (c *cluster) quiesce() error {
	deadline := time.Now().Add(10 * time.Second)
	var calmSince time.Time
	for {
		now := time.Now()
		if now.After(deadline) {
			return errors.New("cluster did not quiesce within 10s")
		}
		pending := 0
		for _, s := range c.sites {
			pending += len(s.VM().PendingAll())
		}
		switch {
		case pending != 0:
			calmSince = time.Time{}
		case calmSince.IsZero():
			calmSince = now
		case now.Sub(calmSince) >= 5*time.Millisecond:
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// checkConservation verifies, per item, that the quota at all sites
// plus the value in Vm not yet accepted equals the initial total plus
// the committed deltas the clients observed.
func (c *cluster) checkConservation(deltas []core.Value) error {
	inflight := make(map[ident.ItemID]core.Value)
	for _, si := range c.sites {
		for _, v := range si.VM().PendingAll() {
			if !c.sites[v.To-1].VM().Accepted(si.ID(), v.Seq) {
				inflight[v.Item] += v.Amount
			}
		}
	}
	for k, item := range c.items {
		got := inflight[item]
		for _, s := range c.sites {
			got += s.DB().Value(item)
		}
		want := c.initial[k]
		if k < len(deltas) {
			want += deltas[k]
		}
		if got != want {
			return fmt.Errorf("conservation: %s holds %d across sites and in flight, want %d", item, got, want)
		}
	}
	return nil
}

// quotas snapshots every site's share of every item.
func (c *cluster) quotas() [][]core.Value {
	out := make([][]core.Value, len(c.sites))
	for i, s := range c.sites {
		out[i] = make([]core.Value, len(c.items))
		for k, item := range c.items {
			out[i][k] = s.DB().Value(item)
		}
	}
	return out
}

// errQuotaMismatch marks a restarted site that recovered other quotas
// than it held when it crashed.
var errQuotaMismatch = errors.New("restart lost or invented quota")

// restart crashes site i and times its Restart over the log it wrote,
// then checks that it recovered exactly the quotas it held.
func (c *cluster) restart(i int, want [][]core.Value) (time.Duration, error) {
	s := c.sites[i]
	s.Crash()
	// Collect the workload's garbage first, so no GC cycle it owes
	// lands inside the timed restart.
	runtime.GC()
	start := time.Now()
	if err := s.Restart(); err != nil {
		return 0, err
	}
	took := time.Since(start)
	for k, item := range c.items {
		if got := s.DB().Value(item); got != want[i][k] {
			return took, fmt.Errorf("%w: site %d recovered %s as %d, held %d before the crash", errQuotaMismatch, i+1, item, got, want[i][k])
		}
	}
	return took, nil
}

// stats sums the site counters the metrics use.
func (c *cluster) stats() site.Stats {
	var t site.Stats
	for _, s := range c.sites {
		x := s.Stats()
		t.RequestsSent += x.RequestsSent
		t.RequestsDeclined += x.RequestsDeclined
		t.VmCreated += x.VmCreated
		t.VmAccepted += x.VmAccepted
		t.VmDuplicates += x.VmDuplicates
		t.Retransmissions += x.Retransmissions
	}
	return t
}

// close stops every site, endpoint and log and removes the WAL files.
func (c *cluster) close() {
	for _, s := range c.sites {
		s.Crash()
	}
	for _, ep := range c.eps {
		ep.Close()
	}
	for _, l := range c.logs {
		l.Close()
	}
	os.RemoveAll(c.dir)
}
