package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"
)

// digest hashes everything a plan would send for one seed: the seeded
// population, the first ops of every stream, and the bulk payload.
func digest(t *testing.T, name string, seed int64) [sha256.Size]byte {
	t.Helper()
	p, err := newPlan(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintln(h, p.prefix, p.colls, p.containers)
	for i := range p.pop {
		fmt.Fprintln(h, p.pop[i].spec, p.pop[i].crc)
	}
	for _, stream := range []int{streamFill, streamWarm, streamTimed} {
		for i := 0; i < 2000; i++ {
			writeOp(h, p.gen(stream, i))
		}
	}
	h.Write(p.bulkBase)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func writeOp(h hash.Hash, o op) {
	fmt.Fprintln(h, o.kind, o.path, o.resource, o.container, o.size, o.content,
		o.meta, o.query, o.wantHits, o.wantCRC)
}

// TestSeededGeneration checks that the op sequence depends only on
// (workload, seed): equal seeds give identical inputs, different seeds
// different ones.
func TestSeededGeneration(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := digest(t, name, 7), digest(t, name, 7)
			if a != b {
				t.Fatalf("seed 7 generated two different sequences")
			}
			if c := digest(t, name, 8); c == a {
				t.Fatalf("seeds 7 and 8 generated the same sequence")
			}
		})
	}
}

// TestRunPrefixes checks that every path a run writes lies under its
// own prefix, and that puts never reuse a name within a run.
func TestRunPrefixes(t *testing.T) {
	for _, name := range workloads {
		p, err := newPlan(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, stream := range []int{streamFill, streamWarm, streamTimed} {
			for i := 0; i < 3000; i++ {
				o := p.gen(stream, i)
				if o.kind != opPut && o.kind != opBulk {
					continue
				}
				if len(o.path) <= len(p.prefix) || o.path[:len(p.prefix)+1] != p.prefix+"/" {
					t.Fatalf("%s: %s outside run prefix %s", name, o.path, p.prefix)
				}
				if seen[o.path] {
					t.Fatalf("%s: name %s written twice", name, o.path)
				}
				seen[o.path] = true
			}
		}
	}
}

// TestMixShares checks meta_mix's op mix and query scoping against the
// shares it is specified with.
func TestMixShares(t *testing.T) {
	p, err := newPlan("meta_mix", 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var kinds [nKinds]int
	root, hits := 0, 0
	for i := 0; i < n; i++ {
		o := p.gen(streamTimed, i)
		kinds[o.kind]++
		if o.kind == opQuery {
			hits += o.wantHits
			if o.query.Scope == "/" {
				root++
			}
		}
	}
	near := func(got int, share float64) bool {
		want := share * n
		return float64(got) > 0.9*want && float64(got) < 1.1*want
	}
	if !near(kinds[opGet], 0.60) || !near(kinds[opStat], 0.20) || !near(kinds[opQuery], 0.15) || !near(kinds[opPut], 0.05) {
		t.Fatalf("op mix %v, want 60/20/15/5 %% of %d", kinds, n)
	}
	if q := kinds[opQuery]; root < q/4 || root > q*5/12 {
		t.Fatalf("%d of %d queries root-scoped, want about a third", root, q)
	}
	if hits == 0 {
		t.Fatal("no query expects any hit")
	}
}
