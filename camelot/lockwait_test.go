package camelot

import (
	"fmt"
	"testing"
	"time"

	"camelot/internal/sim"
)

// TestSimulationLockWaitsAreZero pins the determinism invariant the
// per-family refactor relies on: the simulation kernel only switches
// threads at parks, and no code path holds a manager lock across a
// park, so no lock acquisition ever blocks in simulation — whether
// families run serialized or collide. A nonzero counter here means
// some new code parked while holding a lock, which would make the
// timeline schedule-dependent.
func TestSimulationLockWaitsAreZero(t *testing.T) {
	cfg := fastConfig()
	cfg.Trace = true
	runSim(t, cfg, func(k *sim.Kernel, c *Cluster) {
		// One family at a time, fully serialized.
		for i := 0; i < 3; i++ {
			seed(t, c.Node(1), "srv1", fmt.Sprintf("serial%d", i), "v")
		}
		// Then many colliding families: concurrent distributed commits
		// from every site, two protocols, plus aborts.
		done := 0
		for w := 0; w < 9; w++ {
			w := w
			k.Go(fmt.Sprintf("stress%d", w), func() {
				defer func() { done++ }()
				home := c.Node(SiteID(1 + w%3))
				tx, err := home.Begin()
				if err != nil {
					t.Errorf("worker %d begin: %v", w, err)
					return
				}
				key := fmt.Sprintf("collide%d", w)
				tx.Write(srvName(home.ID()), key, []byte("v"))         //nolint:errcheck
				tx.Write(srvName(SiteID(1+(w+1)%3)), key, []byte("v")) //nolint:errcheck
				switch w % 3 {
				case 0:
					tx.Commit() //nolint:errcheck
				case 1:
					tx.CommitWith(Options{Protocol: NonBlocking}) //nolint:errcheck
				default:
					tx.Abort() //nolint:errcheck
				}
			})
		}
		k.Sleep(2 * time.Second)
		if done != 9 {
			t.Fatalf("only %d/9 stress transactions finished", done)
		}
		for id := SiteID(1); id <= 3; id++ {
			s := c.Trace().Site(id)
			if got := s.FamilyLockWaits + s.AckLockWaits + s.ResolvedLockWaits + s.IDLockWaits + s.LifeLockWaits; got != 0 {
				t.Errorf("site %d: %d lock waits in simulation, want 0 (ledger: %+v)", id, got, s)
			}
		}
	})
}
