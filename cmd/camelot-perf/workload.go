package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"camelot/internal/shardmap"
	"camelot/internal/tid"
)

// The run shape every workload shares. Two sessions is the sandbox's
// processor count: each session owns one ctl connection per site and
// runs its transactions one after another, so at most two requests
// are ever in flight and the load stays far below saturation, where
// this host's CPU throttling makes numbers unrepeatable.
const (
	numSites    = 3
	numSessions = 2
	preloadKeys = 8192 // per site
	preloadVal  = 64   // bytes
	preloadTxn  = 512  // writes per preload transaction
	callTimeout = 5 * time.Second
)

// workload is one traffic mix. Names are the benchmark's contract:
// BENCHMARK.json lists them, and -seed changes only arrival times and
// key choice, never the shape.
type workload struct {
	name     string
	why      string
	rate     float64 // transactions per second, all sessions together
	protocol string  // ctl commit protocol: "2pc", "nb" or "paxos"
	sites    int     // participant sites per transaction, coordinator included
	perSite  int     // operations per participant site
	valSize  int     // bytes per written value
	read     bool    // operations are reads of preloaded keys, not writes
}

var workloads = []workload{
	{name: "dist-2pc", rate: 300, protocol: "2pc", sites: 2, perSite: 1, valSize: 64,
		why: "two-site update under 2PC, the paper's headline case: ctl, core, wal and transport all on the critical path"},
	{name: "dist-nb", rate: 300, protocol: "nb", sites: 2, perSite: 1, valSize: 64,
		why: "same traffic under the non-blocking protocol: the replication phase adds records, flushes and datagrams, so message handling is the largest share"},
	{name: "dist-paxos", rate: 300, protocol: "paxos", sites: 2, perSite: 1, valSize: 64,
		why: "same traffic under Paxos Commit: a separate code path (acceptor records), same rate so the three protocols compare directly"},
	{name: "local-update", rate: 300, protocol: "2pc", sites: 1, perSite: 1, valSize: 64,
		why: "one write at the coordinator only: no datagrams, the log force is the commit; bypasses every network-side optimisation"},
	{name: "dist-readonly", rate: 300, protocol: "2pc", sites: 2, perSite: 1, read: true,
		why: "two-site read-only 2PC: no log records or flushes, so core, transport, ctl and shared locks do all the work; bypasses every WAL optimisation"},
	{name: "wide-2pc", rate: 150, protocol: "2pc", sites: 3, perSite: 8, valSize: 256,
		why: "three sites, eight 256-byte writes each: ~30 log records, 27 ctl round trips, a two-way fan-out whose slower subordinate sets the commit time"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one planned transaction.
type op struct {
	due   time.Duration // offset from the start of its phase
	parts []int         // participant site indexes, coordinator first
	keys  [][]string    // keys[i] are operated on at parts[i]
}

// newShardMap is the deployment's routing table: one shard per site.
func newShardMap() *shardmap.Map {
	sites := make([]tid.SiteID, numSites)
	for i := range sites {
		sites[i] = tid.SiteID(i + 1)
	}
	m, err := shardmap.New(1, numSites, sites)
	if err != nil {
		panic(err) // fixed, valid arguments
	}
	return m
}

// preloadKeySet names the keys setup writes at each site. It does not
// depend on the seed: every run restarts over the same working set.
func preloadKeySet(m *shardmap.Map) [][]string {
	out := make([][]string, numSites)
	for i := 0; ; i++ {
		k := fmt.Sprintf("p%d", i)
		s := int(m.SiteOf(k)) - 1
		if len(out[s]) < preloadKeys {
			out[s] = append(out[s], k)
		}
		full := true
		for _, ks := range out {
			full = full && len(ks) == preloadKeys
		}
		if full {
			return out
		}
	}
}

// valueFor is the value written under key: the key repeated to size.
// The verifier recomputes it instead of the plan carrying a copy.
func valueFor(key string, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = key[i%len(key)]
	}
	return v
}

// arrivals returns n seeded arrival offsets in [0, span), ascending.
// Given their number, the arrival times of a Poisson process are
// independent uniform draws, so this is a Poisson stream whose count
// is fixed: the offered load is the same on every seed, and goodput
// does not inherit the ~2% spread a Poisson count of 3000 would have.
func arrivals(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// plan builds one session's transactions for a phase of the given
// length. first numbers the phase's transactions within the session,
// which keeps written keys unique across phases and sessions. Keys
// have one length, so that log bytes per transaction do not depend
// on the seed.
func plan(w workload, rng *rand.Rand, m *shardmap.Map, pre [][]string, sess, first int, span time.Duration) []op {
	n := int(w.rate*span.Seconds()/numSessions + 0.5)
	ops := make([]op, n)
	for i, due := range arrivals(rng, n, span) {
		idx := first + i
		o := op{due: due}
		for p := 0; p < w.sites; p++ {
			site := (sess + idx + p) % numSites // coordinator round-robin, then its successors
			keys := make([]string, w.perSite)
			for k := range keys {
				if w.read {
					keys[k] = pre[site][rng.Intn(len(pre[site]))]
					continue
				}
				for {
					key := fmt.Sprintf("w%d.%06d.%d.%d-%08x", sess, idx, p, k, rng.Uint32())
					if int(m.SiteOf(key))-1 == site {
						keys[k] = key
						break
					}
				}
			}
			o.parts = append(o.parts, site)
			o.keys = append(o.keys, keys)
		}
		ops[i] = o
	}
	return ops
}

// sessionRNG seeds one session's generator. Sessions draw from
// separate streams so adding a session would not disturb the others.
func sessionRNG(seed int64, sess int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(sess)))
}
