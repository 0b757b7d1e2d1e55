package camelot

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"camelot/internal/rt"
)

// TestRealtimeConcurrentFamilies hammers the per-family locking
// structure on the ordinary Go runtime: many transaction families in
// flight at once, spread across three sites, mixing local commits,
// distributed commits under both protocols, and aborts. Run under
// the race detector (make race / the CI race job) it checks that no
// two families' protocol work races on shared manager state now that
// the old single manager mutex is gone.
func TestRealtimeConcurrentFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cfg := fastConfig()
	c := NewCluster(rt.Real(), cfg)
	for id := SiteID(1); id <= 3; id++ {
		c.AddNode(id).AddServer(srvName(id))
	}

	const (
		workers    = 12
		txnsEach   = 6
		numNodes   = 3
		numServers = 3
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*txnsEach)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Workers begin at different sites so coordinators and
			// subordinates interleave everywhere.
			home := c.Node(SiteID(1 + w%numNodes))
			for i := 0; i < txnsEach; i++ {
				tx, err := home.Begin()
				if err != nil {
					errs <- fmt.Errorf("worker %d begin %d: %w", w, i, err)
					return
				}
				key := fmt.Sprintf("w%d-k%d", w, i)
				// Touch the local server and one remote server so most
				// families run a distributed protocol.
				local := srvName(home.ID())
				remote := srvName(SiteID(1 + (w+i+1)%numServers))
				if err := tx.Write(local, key, []byte("v")); err != nil {
					errs <- fmt.Errorf("worker %d write %d: %w", w, i, err)
					return
				}
				if remote != local {
					if err := tx.Write(remote, key, []byte("v")); err != nil {
						errs <- fmt.Errorf("worker %d remote write %d: %w", w, i, err)
						return
					}
				}
				switch i % 3 {
				case 0:
					err = tx.Commit()
				case 1:
					err = tx.CommitWith(Options{Protocol: NonBlocking})
				default:
					err = tx.Abort()
					if err == nil {
						continue
					}
					errs <- fmt.Errorf("worker %d abort %d: %w", w, i, err)
					return
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d commit %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every committed key is durable at its coordinator's local server;
	// aborted keys (i%3 == 2) must not be. Both outcomes apply
	// asynchronously after Commit/Abort returns, so poll under a
	// deadline in each direction.
	deadline := time.Now().Add(10 * time.Second)
	for w := 0; w < workers; w++ {
		home := c.Node(SiteID(1 + w%numNodes))
		for i := 0; i < txnsEach; i++ {
			key := fmt.Sprintf("w%d-k%d", w, i)
			srv := home.Server(srvName(home.ID()))
			wantVisible := i%3 != 2
			for {
				if _, ok := srv.Peek(key); ok == wantVisible {
					break
				}
				if !time.Now().Before(deadline) {
					if wantVisible {
						t.Fatalf("committed key %s never became visible at site %d", key, home.ID())
					}
					t.Fatalf("aborted key %s still visible at site %d", key, home.ID())
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	// The managers stayed consistent: every family that began was
	// resolved one way or the other.
	var begun, committed, aborted int
	for id := SiteID(1); id <= 3; id++ {
		s := c.Node(id).TM().Stats()
		begun += s.Begun
		committed += s.Committed
		aborted += s.Aborted
	}
	if begun != workers*txnsEach {
		t.Errorf("Begun = %d, want %d", begun, workers*txnsEach)
	}
	if committed == 0 || aborted == 0 {
		t.Errorf("Committed = %d, Aborted = %d; stress should produce both", committed, aborted)
	}
}
