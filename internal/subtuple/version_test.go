package subtuple

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/segment"
)

// maxWalkDecodes is the most records a read of a chain of the given
// number of versions decodes: the head, then the skew-binary walk of
// Store.link, whose worst case is reading the oldest version,
// 3⌈log₂(versions+1)⌉−2 records in all.
func maxWalkDecodes(versions int) uint64 {
	return uint64(3*bits.Len(uint(versions)) - 2)
}

// TestVersionWalkMatchesHistory drives versioned stores through random
// histories — updates that grow past their page (forwarding stubs) and
// into overflow chains, deletes, and transaction apply contexts in
// which several versions, of one subtuple or of several, share one
// timestamp — and keeps a linear model of every subtuple's history.
// Then it reads every subtuple at every instant from before its
// creation to after the last write: View must return what the model
// says, History must list the model's versions, and no read may decode
// more than maxWalkDecodes records. One subtuple takes half the writes,
// so its chain is long enough that a walk over every version would
// break the bound many times over.
func TestVersionWalkMatchesHistory(t *testing.T) {
	type state struct {
		ts      int64
		payload []byte // nil: deleted
	}
	type subject struct {
		tid  page.TID
		hist []state // oldest first
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool := buffer.NewPool(64)
			pool.Register(1, segment.NewMemStore())
			var now int64
			s := New(Config{Pool: pool, Seg: 1, Versioned: true, Clock: func() int64 { now++; return now }})
			var subjects []*subject
			var live []int // indexes of subjects not deleted
			var sawFwd, sawLong, sawShared, sawDelete bool
			payload := func(who, step int) []byte {
				n := rng.Intn(200)
				switch k := rng.Intn(10); {
				case k < 2:
					n = 1500 + rng.Intn(2000) // grows past the room left on its page
				case k < 3:
					n = maxRecord + rng.Intn(2*page.Size) // overflow chain
				}
				p := []byte(fmt.Sprintf("%d/%d:", who, step))
				return append(p, bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, n)...)
			}
			// write makes one insert, update or delete and records it in
			// the model, stamped ts (0: the clock reading it took).
			write := func(step int, ts int64) {
				stamp := func() int64 {
					if ts != 0 {
						return ts
					}
					return now
				}
				if len(live) == 0 || rng.Intn(20) == 0 {
					p := payload(len(subjects), step)
					tid, err := s.Insert(p)
					if err != nil {
						t.Fatal(err)
					}
					subjects = append(subjects, &subject{tid: tid, hist: []state{{stamp(), p}}})
					live = append(live, len(subjects)-1)
					return
				}
				i := rng.Intn(len(live))
				if rng.Intn(2) == 0 {
					i = 0 // the long chain
				}
				sub := subjects[live[i]]
				if i != 0 && rng.Intn(25) == 0 {
					if err := s.Delete(sub.tid); err != nil {
						t.Fatal(err)
					}
					sub.hist = append(sub.hist, state{stamp(), nil})
					live = append(live[:i], live[i+1:]...)
					sawDelete = true
					return
				}
				p := payload(live[i], step)
				if err := s.Update(sub.tid, p); err != nil {
					t.Fatal(err)
				}
				last := sub.hist[len(sub.hist)-1]
				sawShared = sawShared || last.ts == stamp()
				sub.hist = append(sub.hist, state{stamp(), p})
			}
			for step := 0; step < 700; step++ {
				if rng.Intn(8) != 0 {
					write(step, 0)
					continue
				}
				// A transaction's write set: every version it writes
				// carries its one commit timestamp.
				now++
				s.SetApply(uint64(step+1), now)
				for n := 2 + rng.Intn(5); n > 0; n-- {
					write(step, now)
				}
				s.ClearApply()
			}

			r := s.Reader()
			defer r.Done()
			for who, sub := range subjects {
				if loc, rec, err := s.resolve(sub.tid); err == nil {
					sawFwd = sawFwd || loc != sub.tid
					sawLong = sawLong || rec[0]&fLong != 0
				}
				var instants []int64
				for asof := sub.hist[0].ts - 1; asof <= sub.hist[len(sub.hist)-1].ts+1; asof++ {
					instants = append(instants, asof)
				}
				bound := maxWalkDecodes(len(sub.hist))
				for _, asof := range append(instants, Current) {
					var want []byte
					for _, v := range sub.hist {
						if v.ts <= asof {
							want = v.payload
						}
					}
					base := s.DecodeCount()
					got, ok, err := r.View(sub.tid, asof)
					decoded := s.DecodeCount() - base
					if err != nil || ok != (want != nil) || !bytes.Equal(got, want) {
						t.Fatalf("subtuple %d (%d versions) asof %d: View = %d bytes, %v, %v; model says %d bytes",
							who, len(sub.hist), asof, len(got), ok, err, len(want))
					}
					r.Done()
					if decoded > bound {
						t.Fatalf("subtuple %d (%d versions) asof %d: %d records decoded, bound %d",
							who, len(sub.hist), asof, decoded, bound)
					}
				}
				h, err := s.History(sub.tid)
				if err != nil || len(h) != len(sub.hist) {
					t.Fatalf("subtuple %d: History = %d versions, %v; model has %d", who, len(h), err, len(sub.hist))
				}
				for i, v := range h {
					m := sub.hist[len(sub.hist)-1-i]
					if v.FromTS != m.ts || v.Deleted != (m.payload == nil) || !bytes.Equal(v.Payload, m.payload) {
						t.Fatalf("subtuple %d: History[%d] = ts %d deleted %v, model ts %d deleted %v",
							who, i, v.FromTS, v.Deleted, m.ts, m.payload == nil)
					}
				}
			}
			if long := len(subjects[0].hist); long < 256 {
				t.Fatalf("longest chain has %d versions; too short to tell a logarithmic walk from a linear one", long)
			}
			if !sawFwd || !sawLong || !sawShared || !sawDelete {
				t.Fatalf("history lacks a forwarded head (%v), an overflow head (%v), versions sharing a timestamp (%v) or a delete (%v)",
					sawFwd, sawLong, sawShared, sawDelete)
			}
		})
	}
}
