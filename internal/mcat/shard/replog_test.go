package shard

import (
	"fmt"
	"testing"
)

// TestRepLogAppendFullIsOneAlloc: once the window is full, an append
// overwrites the oldest slot; its only allocation is the line copy.
func TestRepLogAppendFullIsOneAlloc(t *testing.T) {
	rl := NewRepLog(DefaultRepLogCap)
	line := []byte(`{"op":"register","path":"/grid/a/b"}`)
	for i := 0; i < DefaultRepLogCap+10; i++ {
		rl.Append(line)
	}
	if allocs := testing.AllocsPerRun(100, func() { rl.Append(line) }); allocs != 1 {
		t.Errorf("Append on a full log = %v allocations, want 1", allocs)
	}
}

// TestRepLogSinceAcrossWrap: against a model that keeps every line,
// Since answers for every reader position — behind the window, inside
// it across the ring's wrap point, and caught up — after every append,
// with and without a boot base.
func TestRepLogSinceAcrossWrap(t *testing.T) {
	const max = 5
	for _, base := range []uint64{0, 40} {
		rl := NewRepLog(max)
		rl.SetBase(base)
		var all []string // all[i] has sequence base+1+i
		for i := 0; i < 3*max+2; i++ {
			line := fmt.Sprintf("b%d-e%d", base, i)
			rl.Append([]byte(line))
			all = append(all, line)
			head := base + uint64(len(all))
			if rl.Head() != head {
				t.Fatalf("base %d: Head = %d, want %d", base, rl.Head(), head)
			}
			oldest := base + 1
			if len(all) > max {
				oldest = head - max + 1
			}
			for after := uint64(0); after <= head+1; after++ {
				got, ok := rl.Since(after)
				if wantOK := after+1 >= oldest; ok != wantOK {
					t.Fatalf("base %d head %d: Since(%d) ok = %v, want %v", base, head, after, ok, wantOK)
				}
				var want []string
				if ok && after < head {
					want = all[after-base:]
				}
				var gotS []string
				for _, g := range got {
					gotS = append(gotS, string(g))
				}
				if fmt.Sprint(gotS) != fmt.Sprint(want) {
					t.Fatalf("base %d head %d: Since(%d) = %q, want %q", base, head, after, got, want)
				}
			}
		}
	}
}
