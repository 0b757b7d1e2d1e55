// Package oracle checks the recovery invariants of a Camelot cluster
// after a faulted run. The chaos explorer (internal/chaos) injects a
// fault schedule, heals the world, and then asks the oracle whether
// the cluster honored transactional semantics anyway:
//
//   - Atomicity: every transaction's write set — each key at the site
//     that holds it — is present in full or not at all.
//   - Client view: an outcome reported to the client (commit, abort)
//     agrees with what the sites hold; an unknown outcome — the
//     coordinator died with the call in flight — may have gone either
//     way, but never partially.
//   - Outcome agreement: no two transaction managers hold
//     contradictory resolved outcomes (one says commit, another says
//     abort) for the same transaction family.
//   - Liveness: every site can begin, write, and abort a fresh probe
//     transaction — no leaked locks, no wedged manager.
//
// The invariants are phrased against SiteView, an interrogation
// interface a site can answer either in process (the simulated
// cluster) or over a control connection (a real camelot-node
// process); CheckViews is the engine and Check is the in-process
// adapter. The oracle must be invoked after faults are healed and the
// protocol has been given time to quiesce (and, for the in-process
// form, from a cluster thread: it runs probe transactions).
// Durability is checked by the caller running the oracle, bouncing
// every site, and running it again: updates that survive that second
// pass were genuinely on stable storage.
package oracle

import (
	"fmt"

	"camelot/camelot"
	"camelot/internal/shardmap"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// Outcome is the client's view of one workload transaction.
type Outcome int

// Client-observed outcomes.
const (
	// Unknown means the commit call returned an undetermined error —
	// typically the coordinator crashed with the call in flight.
	Unknown Outcome = iota
	// Committed means Commit returned success.
	Committed
	// Aborted means the transaction ended in a clean abort.
	Aborted
	// Skipped means the workload never reached commit for this
	// transaction (e.g. Begin failed because the node was down); the
	// oracle only requires that its key is absent or the write ended
	// all-or-none.
	Skipped
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	case Skipped:
		return "skipped"
	default:
		return "unknown"
	}
}

// Txn describes one workload transaction for the oracle.
type Txn struct {
	// Family identifies the transaction; zero when the workload never
	// got far enough to have one (Skipped before Begin succeeded).
	Family tid.FamilyID
	// Outcome is what the client observed.
	Outcome Outcome
	// Writes is the write set: each key at the site that holds it. A
	// keyspace workload writes distinct keys on distinct shards, a
	// named-server workload the same key at every site's server; either
	// way atomicity means the whole set landed or none of it did.
	// Read-only participants do not appear.
	Writes []Write
}

// Write is one key a transaction wrote, at one site that holds it.
type Write struct {
	// Key is the key written.
	Key string
	// Site is the site interrogated for it — under a shard map, the
	// key's home site.
	Site camelot.SiteID
	// Shared marks a key other workload transactions also write (hot
	// keys under skew). Presence cannot attribute a shared key's value
	// to this transaction, so the oracle asserts only committed ⇒
	// present for it, not all-or-nothing.
	Shared bool
}

// Violation is one broken invariant.
type Violation struct {
	// Rule names the invariant: "atomicity", "client-view",
	// "agreement", "liveness", or "view" (a site could not be
	// interrogated at all).
	Rule string
	// Txn is the workload index of the offending transaction, or -1
	// for cluster-wide violations.
	Txn int
	// Detail is a human-readable description.
	Detail string
}

// String formats the violation for reports.
func (v Violation) String() string {
	if v.Txn >= 0 {
		return fmt.Sprintf("%s: txn %d: %s", v.Rule, v.Txn, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Rule, v.Detail)
}

// SiteView is the oracle's window onto one site. The simulated
// cluster answers in process; a real deployment answers over the
// node's control connection. Errors mean the site could not be asked
// (a dead control connection, say) — distinct from a negative answer,
// and reported as "view" violations so a run cannot pass vacuously.
type SiteView interface {
	// HasKey reports whether the site's data server holds key.
	HasKey(key string) (bool, error)
	// OutcomeOf returns the site's resolved outcome for a family;
	// OutcomeUnknown when it holds none (normal under presumed abort).
	OutcomeOf(f tid.FamilyID) (wire.Outcome, error)
	// Probe runs a fresh begin/write/abort transaction through the
	// site and reports whether it wedged.
	Probe() error
}

// Config tells the oracle how the workload laid out the cluster.
type Config struct {
	// Sites lists every site id, in order.
	Sites []camelot.SiteID
	// ServerOf maps a site to the name of its data server. Ignored
	// when ShardMap is set.
	ServerOf func(camelot.SiteID) string
	// ShardMap, when non-nil, describes a sharded data tier: presence
	// questions route each key to its home shard's server on the asked
	// site, and a site hosting no shard is probed begin/abort only.
	ShardMap *shardmap.Map
}

// Check runs every invariant against the quiesced in-process cluster
// and returns the violations found (nil when the run was clean). It
// is CheckViews over nodeView adapters.
func Check(c *camelot.Cluster, cfg Config, txns []Txn) []Violation {
	views := make(map[camelot.SiteID]SiteView, len(cfg.Sites))
	for _, id := range cfg.Sites {
		v := &nodeView{node: c.Node(id)}
		if m := cfg.ShardMap; m != nil {
			v.serverFor = m.ServerFor
			if local := m.ShardsAt(id); len(local) > 0 {
				v.probe = m.ServerOf(local[0])
			}
		} else {
			name := cfg.ServerOf(id)
			v.serverFor = func(string) string { return name }
			v.probe = name
		}
		views[id] = v
	}
	return CheckViews(cfg.Sites, views, txns)
}

// CheckViews runs every invariant against one SiteView per site and
// returns the violations found (nil when the run was clean).
func CheckViews(sites []camelot.SiteID, views map[camelot.SiteID]SiteView, txns []Txn) []Violation {
	var out []Violation
	out = append(out, checkPresence(views, txns)...)
	out = append(out, checkAgreement(sites, views, txns)...)
	out = append(out, checkLiveness(sites, views)...)
	return out
}

// checkPresence verifies atomicity and the client's view of every
// transaction: its exclusive writes — each interrogated at its own
// site — are present all together or not at all, and the tally matches
// the outcome the client observed. Shared (hot) keys are held only to
// committed ⇒ present, since another transaction's commit legitimately
// leaves them present after this one's abort.
func checkPresence(views map[camelot.SiteID]SiteView, txns []Txn) []Violation {
	var out []Violation
	for i, tx := range txns {
		exclPresent, exclTotal := 0, 0
		var missingShared []string
		for _, w := range tx.Writes {
			v := views[w.Site]
			if v == nil {
				continue
			}
			ok, err := v.HasKey(w.Key)
			if err != nil {
				out = append(out, Violation{
					Rule: "view", Txn: i,
					Detail: fmt.Sprintf("site %d unreachable for key %q: %v", w.Site, w.Key, err),
				})
				continue
			}
			if w.Shared {
				if !ok {
					missingShared = append(missingShared, w.Key)
				}
				continue
			}
			exclTotal++
			if ok {
				exclPresent++
			}
		}
		if exclPresent != 0 && exclPresent != exclTotal {
			out = append(out, Violation{
				Rule: "atomicity", Txn: i,
				Detail: fmt.Sprintf("write set landed at %d/%d of its sites", exclPresent, exclTotal),
			})
			continue // the client-view check would only repeat the news
		}
		switch tx.Outcome {
		case Committed:
			if exclPresent != exclTotal {
				out = append(out, Violation{
					Rule: "client-view", Txn: i,
					Detail: fmt.Sprintf("client saw COMMIT but write set is at %d/%d of its sites", exclPresent, exclTotal),
				})
			}
			if len(missingShared) > 0 {
				out = append(out, Violation{
					Rule: "client-view", Txn: i,
					Detail: fmt.Sprintf("client saw COMMIT but shared keys %v are absent", missingShared),
				})
			}
		case Aborted:
			if exclPresent != 0 {
				out = append(out, Violation{
					Rule: "client-view", Txn: i,
					Detail: fmt.Sprintf("client saw ABORT but write set is at %d/%d of its sites", exclPresent, exclTotal),
				})
			}
		}
	}
	return out
}

// checkAgreement asks every site's transaction manager for its
// resolved outcome of each family. Unknown answers are fine (a
// subordinate may have forgotten an aborted family under presumed
// abort); a definite commit at one site against a definite abort at
// another is the split-brain the commitment protocols exist to
// prevent.
func checkAgreement(sites []camelot.SiteID, views map[camelot.SiteID]SiteView, txns []Txn) []Violation {
	var out []Violation
	for i, tx := range txns {
		if tx.Family == 0 {
			continue
		}
		commits, aborts := 0, 0
		var detail string
		for _, id := range sites {
			v := views[id]
			if v == nil {
				continue
			}
			oc, err := v.OutcomeOf(tx.Family)
			if err != nil {
				out = append(out, Violation{
					Rule: "view", Txn: i,
					Detail: fmt.Sprintf("site %d unreachable for family %d: %v", id, tx.Family, err),
				})
				continue
			}
			switch oc {
			case wire.OutcomeCommit:
				commits++
				detail += fmt.Sprintf(" site%d=commit", id)
			case wire.OutcomeAbort:
				aborts++
				detail += fmt.Sprintf(" site%d=abort", id)
			}
		}
		if commits > 0 && aborts > 0 {
			out = append(out, Violation{
				Rule: "agreement", Txn: i,
				Detail: fmt.Sprintf("sites disagree on family %d:%s", tx.Family, detail),
			})
		}
	}
	return out
}

// checkLiveness probes each site with a fresh transaction: begin,
// write a probe key at the local server, abort. A leaked lock or a
// wedged manager turns the probe into an error.
func checkLiveness(sites []camelot.SiteID, views map[camelot.SiteID]SiteView) []Violation {
	var out []Violation
	for _, id := range sites {
		v := views[id]
		if v == nil {
			continue
		}
		if err := v.Probe(); err != nil {
			out = append(out, Violation{
				Rule: "liveness", Txn: -1,
				Detail: fmt.Sprintf("site %d %v", id, err),
			})
		}
	}
	return out
}

// nodeView answers the oracle's questions for one in-process node.
type nodeView struct {
	node *camelot.Node
	// serverFor names the data server that holds a key at this site:
	// the key's home shard under a shard map, else the site's one server.
	serverFor func(key string) string
	// probe is the server the liveness probe writes through: the site's
	// first local shard, or "" (begin/abort only) when it hosts none.
	probe string
}

func (v *nodeView) HasKey(key string) (bool, error) {
	srv := v.node.Server(v.serverFor(key))
	if srv == nil {
		return false, nil
	}
	_, ok := srv.Peek(key)
	return ok, nil
}

func (v *nodeView) OutcomeOf(f tid.FamilyID) (wire.Outcome, error) {
	return v.node.OutcomeOf(f), nil
}

func (v *nodeView) Probe() error {
	tx, err := v.node.Begin()
	if err != nil {
		return fmt.Errorf("cannot begin after quiesce: %v", err)
	}
	if v.probe != "" {
		if err := tx.Write(v.probe, "oracle-probe", []byte("x")); err != nil {
			tx.Abort() //nolint:errcheck // probe cleanup; the write is the check
			return fmt.Errorf("probe write blocked (leaked lock?): %v", err)
		}
	}
	tx.Abort() //nolint:errcheck // probe cleanup; the write above is the check
	return nil
}
