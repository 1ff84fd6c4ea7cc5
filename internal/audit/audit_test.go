package audit

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gosrb/internal/types"
)

func TestRecordAndQuery(t *testing.T) {
	l := New(10)
	now := time.Unix(100, 0)
	l.SetClock(func() time.Time { return now })
	l.Op("alice", "get", "/c/f1", true, "")
	l.Op("bob", "ingest", "/c/f2", true, "")
	l.Op("alice", "delete", "/c/f1", false, "permission denied")

	if got := len(l.Query(Filter{User: "alice"})); got != 2 {
		t.Errorf("alice records = %d", got)
	}
	if got := len(l.Query(Filter{Op: "ingest"})); got != 1 {
		t.Errorf("ingest records = %d", got)
	}
	recs := l.Query(Filter{})
	if len(recs) != 3 || recs[0].Op != "get" || recs[2].OK {
		t.Errorf("all records = %+v", recs)
	}
	if recs[0].Time != now {
		t.Error("time should be stamped")
	}
}

func TestTargetSubtreeFilter(t *testing.T) {
	l := New(10)
	l.Op("u", "get", "/a/b/f", true, "")
	l.Op("u", "get", "/other/f", true, "")
	if got := len(l.Query(Filter{Target: "/a"})); got != 1 {
		t.Errorf("subtree filter = %d", got)
	}
	if got := len(l.Query(Filter{Target: "/a/b/f"})); got != 1 {
		t.Errorf("exact filter = %d", got)
	}
}

func TestTimeWindow(t *testing.T) {
	l := New(10)
	base := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		l.Record(types.AuditRecord{User: "u", Op: "op", Time: base.Add(time.Duration(i) * time.Hour)})
	}
	got := l.Query(Filter{Since: base.Add(time.Hour), Until: base.Add(3 * time.Hour)})
	if len(got) != 3 {
		t.Errorf("window = %d records", len(got))
	}
}

func TestRingDropsOldest(t *testing.T) {
	l := New(3)
	for i := 0; i < 5; i++ {
		l.Op("u", "op", fmt.Sprintf("/f%d", i), true, "")
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d", l.Len())
	}
	if l.Dropped() != 2 {
		t.Errorf("Dropped = %d", l.Dropped())
	}
	recs := l.Query(Filter{})
	if recs[0].Target != "/f2" || recs[2].Target != "/f4" {
		t.Errorf("ring contents = %+v", recs)
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := New(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Op("u", "op", "/t", true, "")
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Errorf("Len = %d, want 800", l.Len())
	}
}

func TestDefaultCapacity(t *testing.T) {
	l := New(0)
	l.Op("u", "op", "/t", true, "")
	if l.Len() != 1 {
		t.Error("default-capacity log should accept records")
	}
}

// TestWraparoundAccounting walks the ring through several full
// wraparounds and checks the books stay exact: every displaced record
// is counted, the survivors are the newest capacity records in append
// order, and Len never exceeds the bound.
func TestWraparoundAccounting(t *testing.T) {
	const capacity = 4
	l := New(capacity)
	const total = capacity*3 + 2 // three full wraps plus a partial
	for i := 0; i < total; i++ {
		l.Op("u", "op", fmt.Sprintf("/f%d", i), true, "")
		if l.Len() > capacity {
			t.Fatalf("Len = %d exceeds capacity %d", l.Len(), capacity)
		}
		wantDropped := int64(i + 1 - capacity)
		if wantDropped < 0 {
			wantDropped = 0
		}
		if l.Dropped() != wantDropped {
			t.Fatalf("after %d records Dropped = %d, want %d", i+1, l.Dropped(), wantDropped)
		}
	}
	recs := l.Query(Filter{})
	if len(recs) != capacity {
		t.Fatalf("Query returned %d records, want %d", len(recs), capacity)
	}
	for i, r := range recs {
		want := fmt.Sprintf("/f%d", total-capacity+i)
		if r.Target != want {
			t.Errorf("recs[%d] = %s, want %s", i, r.Target, want)
		}
	}
	// Dropped plus retained must equal everything ever recorded.
	if l.Dropped()+int64(l.Len()) != int64(total) {
		t.Errorf("dropped %d + len %d != total %d", l.Dropped(), l.Len(), total)
	}
}

// TestRingGrowsOnDemand: the ring allocates as records arrive, not up
// front, and Len, Dropped and Query order match a keep-everything
// model before, at and past the wrap.
func TestRingGrowsOnDemand(t *testing.T) {
	if l := New(0); cap(l.records) != 0 {
		t.Errorf("a new default log preallocates %d records", cap(l.records))
	}
	for _, capacity := range []int{1, 3, 64, 100, 1000} {
		l := New(capacity)
		var all []string
		for i := 0; i < 3*capacity+1; i++ {
			name := fmt.Sprintf("u%d", i)
			l.Op(name, "get", "/c/f", true, "")
			all = append(all, name)
			kept := all
			if len(kept) > capacity {
				kept = kept[len(kept)-capacity:]
			}
			if l.Len() != len(kept) || l.Dropped() != int64(len(all)-len(kept)) {
				t.Fatalf("cap %d after %d: Len %d Dropped %d", capacity, len(all), l.Len(), l.Dropped())
			}
			if cap(l.records) > capacity {
				t.Fatalf("cap %d: ring grew to %d slots", capacity, cap(l.records))
			}
			recs := l.Query(Filter{})
			for j, r := range recs {
				if r.User != kept[j] {
					t.Fatalf("cap %d after %d: record %d = %s, want %s", capacity, len(all), j, r.User, kept[j])
				}
			}
		}
	}
}
