package site

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dvp/internal/cc"
	"dvp/internal/core"
	"dvp/internal/ident"
	"dvp/internal/recovery"
	"dvp/internal/simnet"
	"dvp/internal/store"
	"dvp/internal/tstamp"
	"dvp/internal/txn"
	"dvp/internal/vmsg"
	"dvp/internal/wal"
)

// TestLogIsCompleteRecord rebuilds a site's store purely from its log
// into a fresh Durable and compares with the live store: the log must
// be a complete record of all durable state (modulo the initial quota
// placement, which the simulation installs out-of-band — so we start
// the replica from the same initial placement).
func TestLogIsCompleteRecord(t *testing.T) {
	tc := newTestCluster(t, 3, simnet.Config{Seed: 40, MaxDelay: time.Millisecond}, nil)
	tc.createItem("a", 90)
	tc.createItem("b", 30)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		s := tc.sites[rng.Intn(3)]
		switch rng.Intn(3) {
		case 0:
			s.Run(cancel("a", core.Value(rng.Intn(4))))
		case 1:
			tx := reserve("a", core.Value(rng.Intn(30)))
			tx.Timeout = 50 * time.Millisecond
			s.Run(tx)
		case 2:
			tx := reserve("b", core.Value(rng.Intn(8)))
			tx.Timeout = 50 * time.Millisecond
			s.Run(tx)
		}
	}
	tc.waitQuiescent("a", 3*time.Second)

	for i, s := range tc.sites {
		replica := store.New()
		replica.Create("a", core.EvenShares(90, 3)[i])
		replica.Create("b", core.EvenShares(30, 3)[i])
		vm := vmsg.NewManager()
		clk := tstamp.NewClock(s.ID())
		if _, err := recovery.Recover(tc.logs[i], replica, vm, clk); err != nil {
			t.Fatalf("site %v: %v", s.ID(), err)
		}
		for _, item := range []ident.ItemID{"a", "b"} {
			if got, want := replica.Value(item), s.DB().Value(item); got != want {
				t.Errorf("site %v %s: log replay %d, live store %d", s.ID(), item, got, want)
			}
		}
	}
}

// TestLocalCommitWritesOneRecord: on both execution paths a local
// commit's only WAL record is its RecCommit (§5 step 5) — there is no
// separate step-6 applied record — and a log that also holds the
// RecApplied records an older build wrote after each commit still
// recovers, by replay into a fresh store and by crash-restart.
func TestLocalCommitWritesOneRecord(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(int, *Config)
	}{
		{"fastpath", nil},
		{"slowpath", func(_ int, c *Config) { c.DisableFastPath = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := newTestCluster(t, 2, simnet.Config{Seed: 41}, tc.mutate)
			cl.createItem("a", 100)
			s, log := cl.sites[0], cl.logs[0]
			for i := 0; i < 3; i++ {
				before := log.LastLSN()
				if res := s.Run(reserve("a", 5)); !res.Committed() {
					t.Fatalf("local reserve %d: %v", i, res.Status)
				}
				var kinds []wal.RecordKind
				log.Scan(before+1, func(r wal.Record) error {
					kinds = append(kinds, r.Kind)
					return nil
				})
				if len(kinds) != 1 || kinds[0] != wal.RecCommit {
					t.Fatalf("commit %d wrote records %v, want [commit]", i, kinds)
				}
				// What an older build appended after each commit.
				if _, err := log.Append(wal.RecApplied, (&wal.AppliedRec{CommitLSN: before + 1}).Encode()); err != nil {
					t.Fatal(err)
				}
			}
			const want = 50 - 3*5

			replica := store.New()
			replica.Create("a", 50)
			if _, err := recovery.Recover(log, replica, vmsg.NewManager(), tstamp.NewClock(s.ID())); err != nil {
				t.Fatalf("replay of a log with applied records: %v", err)
			}
			if got := replica.Value("a"); got != want {
				t.Errorf("replayed value %d, want %d", got, want)
			}
			s.Crash()
			if err := s.Restart(); err != nil {
				t.Fatalf("restart over a log with applied records: %v", err)
			}
			if got := s.DB().Value("a"); got != want {
				t.Errorf("restarted value %d, want %d", got, want)
			}
			if res := s.Run(reserve("a", 5)); !res.Committed() {
				t.Errorf("commit after restart: %v", res.Status)
			}
		})
	}
}

// TestConcurrentFullReadsResolveByRetry exercises the livelock the
// paper acknowledges (§8): two sites reading the same item at once can
// abort each other, but retries make progress.
func TestConcurrentFullReadsResolveByRetry(t *testing.T) {
	tc := newTestCluster(t, 3, simnet.Config{Seed: 41, MaxDelay: time.Millisecond}, nil)
	tc.createItem("x", 60)
	// Plain lockstep retries livelock symmetrically (each reader's
	// lock makes it decline the other's request, §8's noted hazard);
	// jittered backoff is the "additional mechanism" that avoids it.
	var wg sync.WaitGroup
	results := make([]*txn.Result, 2)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k) + 77))
			tx := readItem("x")
			tx.Timeout = 60 * time.Millisecond
			for attempt := 0; attempt < 10; attempt++ {
				results[k] = tc.sites[k].Run(tx)
				if results[k].Committed() {
					return
				}
				time.Sleep(time.Duration(rng.Intn(40*(attempt+1))) * time.Millisecond)
			}
		}(k)
	}
	wg.Wait()
	for k, res := range results {
		if !res.Committed() {
			t.Errorf("reader %d never committed across 10 retries", k)
		} else if res.Reads["x"] != 60 {
			t.Errorf("reader %d observed %d, want 60", k, res.Reads["x"])
		}
	}
}

// TestConc2Cluster runs the site engine under Conc2 with the §6.2
// network assumptions and checks conservation.
func TestConc2Cluster(t *testing.T) {
	tc := newTestCluster(t, 3,
		simnet.Config{Seed: 42, OrderPreserving: true, MaxDelay: time.Millisecond},
		func(i int, c *Config) { c.CC = cc.New(cc.Conc2) })
	tc.createItem("x", 90)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tx := reserve("x", 2)
				tx.Timeout = 60 * time.Millisecond
				tc.sites[w].Run(tx)
			}
		}(w)
	}
	wg.Wait()
	tc.waitQuiescent("x", 2*time.Second)
	var deltas core.Value
	for _, ci := range tc.committedTxns() {
		deltas += ci.Deltas["x"]
	}
	if got := tc.globalTotal("x"); got != 90+deltas {
		t.Errorf("N = %d, want %d", got, 90+deltas)
	}
}

// TestGrantPolicies drives the same shortfall against each split
// policy and verifies each one conserves and commits.
func TestGrantPolicies(t *testing.T) {
	for _, pol := range []core.SplitPolicy{
		core.GrantExact{}, core.GrantAll{}, core.GrantHalfExcess{}, core.GrantFraction{Num: 1, Den: 4},
	} {
		t.Run(pol.String(), func(t *testing.T) {
			tc := newTestCluster(t, 2, simnet.Config{Seed: 43, MaxDelay: time.Millisecond},
				func(i int, c *Config) { c.Grant = pol })
			tc.createItem("x", 40) // 20 each
			tx := reserve("x", 30) // needs 10 from the peer
			tx.Timeout = 100 * time.Millisecond
			res := tc.sites[0].Run(tx)
			if !res.Committed() {
				t.Fatalf("reserve under %v: %v", pol, res.Status)
			}
			tc.waitQuiescent("x", 2*time.Second)
			if got := tc.globalTotal("x"); got != 10 {
				t.Errorf("N = %d, want 10", got)
			}
		})
	}
}

// TestAskPoliciesReachPeers verifies fanout differences are visible in
// request counts.
func TestAskPoliciesReachPeers(t *testing.T) {
	for _, tc2 := range []struct {
		ask  txn.AskPolicy
		want int
	}{
		{txn.AskOne, 1}, {txn.AskTwo, 2}, {txn.AskAll, 4},
	} {
		tc := newTestCluster(t, 5, simnet.Config{Seed: 44, MaxDelay: time.Millisecond}, nil)
		tc.createItem("x", 50)
		tx := reserve("x", 20) // shortfall: local 10 < 20
		tx.Ask = tc2.ask
		tx.Timeout = 100 * time.Millisecond
		res := tc.sites[0].Run(tx)
		if res.RequestsSent != tc2.want {
			t.Errorf("%v sent %d requests, want %d", tc2.ask, res.RequestsSent, tc2.want)
		}
		_ = res
		tc.net.Close()
	}
}

// TestRandomFaultScheduleProperty runs short workloads under randomly
// generated fault schedules (partitions, link cuts, heals) and checks
// conservation afterwards — the paper's robustness claim as a
// property test.
func TestRandomFaultScheduleProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-schedule soak")
	}
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) + 500))
			n := 3 + rng.Intn(3)
			tc := newTestCluster(t, n, simnet.Config{
				Seed:     int64(trial) + 900,
				LossProb: rng.Float64() * 0.2,
				MaxDelay: time.Millisecond,
			}, nil)
			total := core.Value(100 * n)
			tc.createItem("x", total)

			stop := make(chan struct{})
			var chaos sync.WaitGroup
			chaos.Add(1)
			go func() { // fault injector
				defer chaos.Done()
				for {
					select {
					case <-stop:
						tc.net.Heal()
						return
					case <-time.After(time.Duration(10+rng.Intn(30)) * time.Millisecond):
					}
					switch rng.Intn(3) {
					case 0:
						// Random two-way partition.
						var a, b []ident.SiteID
						for i := 1; i <= n; i++ {
							if rng.Intn(2) == 0 {
								a = append(a, ident.SiteID(i))
							} else {
								b = append(b, ident.SiteID(i))
							}
						}
						tc.net.Partition(a, b)
					case 1:
						tc.net.SetLink(ident.SiteID(rng.Intn(n)+1), ident.SiteID(rng.Intn(n)+1), false)
					case 2:
						tc.net.Heal()
						for i := 1; i <= n; i++ {
							for j := 1; j <= n; j++ {
								tc.net.SetLink(ident.SiteID(i), ident.SiteID(j), true)
							}
						}
					}
				}
			}()

			var wg sync.WaitGroup
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 25; i++ {
						var tx *txn.Txn
						if r.Intn(3) == 0 {
							tx = cancel("x", core.Value(r.Intn(4)))
						} else {
							tx = reserve("x", core.Value(r.Intn(10)))
						}
						tx.Timeout = 40 * time.Millisecond
						tc.sites[w].Run(tx)
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			chaos.Wait()
			tc.waitQuiescent("x", 5*time.Second)

			var deltas core.Value
			for _, ci := range tc.committedTxns() {
				deltas += ci.Deltas["x"]
			}
			if got := tc.globalTotal("x"); got != total+deltas {
				t.Errorf("trial %d: N = %d, want %d (conservation under random faults)",
					trial, got, total+deltas)
			}
		})
	}
}
