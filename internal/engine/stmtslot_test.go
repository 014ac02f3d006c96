package engine

import (
	"sync"
	"testing"
)

// TestStmtSlotNeverTears publishes statements whose five counters all
// carry the statement's number from four goroutines while four others
// read the slot: every read returns one statement's counters whole,
// and once the writers are done the slot holds one of the statements
// published.
func TestStmtSlotNeverTears(t *testing.T) {
	var s stmtSlot
	const writers, readers, each = 4, 4, 2000
	var wg, rwg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.load()
				if n := st.Fetches; st.Hits != n || st.Reads != n || st.Decoded != n || uint64(st.Rows) != n {
					t.Errorf("torn read: %+v", st)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				n := uint64(w*each + i)
				s.store(StmtStats{Fetches: n, Hits: n, Reads: n, Decoded: n, Rows: int(n)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if st := s.load(); st.Fetches == 0 || st.Fetches > writers*each {
		t.Errorf("slot after the writers: %+v, want one of the statements published", st)
	}
}
