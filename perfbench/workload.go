package main

import (
	"math/rand/v2"

	"dvp/internal/core"
)

// Fixed set-up shared by every workload (see the package comment).
const (
	numSites    = 4              // the paper's running example
	numItems    = 10000          // data items per workload
	hotItems    = numItems / 100 // the hot set: half of all skewed picks
	numClients  = 2              // closed-loop clients, one goroutine each
	maxAttempts = 3              // §5: "re-tried a few more times"
	localShare  = 1 << 20        // local's share at every site: no run exhausts it
	pullShare   = 1 << 20        // pull's share at the item's one holder
	auditShare  = 1 << 10        // audit's even per-site share
)

// kind classifies a finished request for the latency split.
type kind int

const (
	kindWrite kind = iota // a write that asked no peer
	kindPull              // a write that sent at least one quota Request (§5 steps 2–3)
	kindRead              // a full read, gathering all of Π⁻¹(d)
	numKinds
)

var kindNames = [numKinds]string{"write", "pull", "read"}

// request is one generated client request: which site runs it, on
// which item, and what it does there.
type request struct {
	site  int // 0-based site index
	item  int // index into the workload's items
	read  bool
	delta core.Value // −1 reserve, +1 cancel; 0 for reads
}

// workload is one named input set: how quota starts out and how the
// clients draw requests. The generator reads only its own stream, never
// program state.
type workload struct {
	name string
	// focus is the operation kind the workload was chosen to stress;
	// focus_p50_us and focus_p90_us report its latency.
	focus kind
	// quota returns item i's initial share at site s (0-based).
	quota func(i, s int) core.Value
	// next draws client c's next request.
	next func(r *rand.Rand, c int, q *request)
}

var workloads = map[string]*workload{
	// local: quota-rich writes on a skewed item set; never asks a peer.
	// Each client runs at its own two sites, so no two requests ever
	// hold one site's lock on an item at once: with shared sites a
	// no-wait lock conflict retried three times within microseconds
	// failed about 20 requests in a million, a count that differed
	// between identical runs.
	"local": {
		name:  "local",
		focus: kindWrite,
		quota: func(i, s int) core.Value { return localShare },
		next: func(r *rand.Rand, c int, q *request) {
			*q = request{site: clientSite(r, c), item: skewedItem(r), delta: reserveOrCancel(r, 9)}
		},
	},
	// pull: each item's whole value sits at one of sites 3–4, so a
	// reserve at sites 1–2 always asks every peer and exactly one
	// grants: the over-drain that would make later writes local never
	// happens. Client c reserves at site c+1 and cancels at site c+3,
	// both on items site c+3 holds, so the clients share no site's
	// items and no lock conflict occurs. The cancels, the workload's
	// local writes, go to other items than the reserves: a cancel
	// stamps its item with the holder's Lamport time, which can run
	// ahead of the reserving site's, and the holder then declines a
	// later Request for that item under Conc1, a 100ms timeout per
	// decline. The holder's share of a reserved item is large enough
	// that no run drains it.
	"pull": {
		name:  "pull",
		focus: kindPull,
		quota: func(i, s int) core.Value {
			if s == pullHolder(i) {
				return pullShare
			}
			return 0
		},
		next: func(r *rand.Rand, c int, q *request) {
			if r.IntN(10) < 8 {
				*q = request{site: c, item: pullItem(r, c, 0), delta: -1}
				return
			}
			item := pullItem(r, c, 1)
			*q = request{site: pullHolder(item), item: item, delta: 1}
		},
	},
	// audit: full reads beside reserves and cancels on a skewed item
	// set whose value starts spread evenly over the sites. A read or
	// pull declined silently waits out the full timeout, and with two
	// clients those stalls take about 90% of client time, so throughput
	// follows a race between acks and the next request that the host's
	// CPU steal moves: over ten 30s runs on a shared 2-vCPU host its
	// commit_tps and read p90 spread 16–17% between quartiles. It runs
	// on request (--workload audit) but BENCHMARK.json does not gate on
	// it.
	"audit": {
		name:  "audit",
		focus: kindRead,
		quota: func(i, s int) core.Value { return auditShare },
		next: func(r *rand.Rand, c int, q *request) {
			*q = request{site: r.IntN(numSites), item: skewedItem(r)}
			switch x := r.IntN(10); {
			case x == 0:
				q.read = true
			case x < 6:
				q.delta = -1
			default:
				q.delta = 1
			}
		},
	},
}

// pullHolder is the site (0-based: 2 or 3) holding pull item i.
func pullHolder(i int) int { return 2 + i%2 }

// pullItem draws one of client c's pull items: a reserve item if
// cancel is 0, a cancel item if it is 1. Every item i with
// i%(2*numClients) == c+numClients*cancel is held by site 2+c.
func pullItem(r *rand.Rand, c, cancel int) int {
	const stride = 2 * numClients
	return stride*r.IntN(numItems/stride) + c + numClients*cancel
}

// clientSite picks one of client c's own sites: c, c+numClients, ….
func clientSite(r *rand.Rand, c int) int {
	return c + numClients*r.IntN(numSites/numClients)
}

// skewedItem sends half of all picks to the hottest 1% of items.
func skewedItem(r *rand.Rand) int {
	if r.IntN(2) == 0 {
		return r.IntN(hotItems)
	}
	return hotItems + r.IntN(numItems-hotItems)
}

// reserveOrCancel returns −1 (reserve) with probability tenths/10,
// else +1 (cancel).
func reserveOrCancel(r *rand.Rand, tenths int) core.Value {
	if r.IntN(10) < tenths {
		return -1
	}
	return 1
}

// clientRand returns client c's own stream for seed: the generator
// shares no lock between clients.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(c)+1))
}
