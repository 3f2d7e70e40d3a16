package linkdb

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentMixedOps hammers the DB from many goroutines; run with
// -race this shakes out locking bugs. Each goroutine owns a URL range,
// so the final contents are checkable.
func TestConcurrentMixedOps(t *testing.T) {
	db := openTemp(t)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				url := fmt.Sprintf("http://w%d/k%d", w, i)
				if err := db.Put(rec(url)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if i%3 == 0 {
					if got, err := db.Get(url); err != nil || got.URL != url {
						t.Errorf("Get(%s) = %v, %v", url, got, err)
						return
					}
				}
				// Cross-reads of other workers' URLs: any outcome is
				// fine, but it must not error except ErrNotFound.
				other := fmt.Sprintf("http://w%d/k%d", (w+1)%workers, i)
				if _, err := db.Get(other); err != nil && err != ErrNotFound {
					t.Errorf("cross Get: %v", err)
					return
				}
				_ = db.Len()
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != workers*perWorker {
		t.Errorf("Len = %d, want %d", db.Len(), workers*perWorker)
	}
}
