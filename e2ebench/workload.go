package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"strconv"
	"time"

	"gosrb/internal/mcat"
	"gosrb/internal/types"
	"gosrb/internal/workload"
)

// Workload generation. Every input the server receives comes from here,
// and depends only on (workload, seed): the population, the warm-up and
// the timed schedule are drawn from separate seeded streams, and object
// contents from per-object seeds.

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opStat
	opQuery
	opBulk
	nKinds
)

var kindNames = [nKinds]string{"put", "get", "stat", "query", "bulk"}

// op is one generated request with the answer the server must give.
type op struct {
	kind      opKind
	path      string
	resource  string
	container string
	size      int
	content   uint64 // payload seed (put, bulk)
	meta      []types.AVU
	query     mcat.Query
	wantHits  int    // query: expected hit count
	wantCRC   uint32 // get: checksum of the stored bytes
}

// object is one object of a seeded population.
type object struct {
	spec workload.Spec
	crc  uint32
	band string
	mag  float64
}

// Random streams of one plan.
const (
	streamWarm  = 1 // the warm-up second
	streamTimed = 2 // the measured window
	streamFill  = 3 // replication-window fill before warm-up
)

// plan is a workload instantiated for one seed.
type plan struct {
	name    string
	rate    float64       // open-loop ops/s, when callers is 0
	callers int           // closed loop: callers each waiting for its reply
	delay   time.Duration // added on every client write (simulated WAN)
	prefix  string        // depth-1 collection this run writes under
	seed    int64
	setups  int // set-ups per run; setup_s is their median

	colls      []string               // depth-2 collections made in setup
	containers []string               // containers made in setup, on vault0
	pop        []object               // objects seeded before warm-up
	fill       bool                   // write until every shard's replication window is full
	hot        func(r *rand.Rand) int // Zipf-distributed index into pop

	// gen returns op i of a stream. Ops of one stream must be generated
	// in order, and gen is not safe for concurrent use.
	gen func(stream, i int) op

	bulkBase []byte // bulk_stream: the payload every object starts from
}

const (
	bulkSize    = 32 << 20
	bulkTail    = 4 << 20
	pgetStreams = 2
	metaPop     = 20000
	metaSize    = 4096
	nColls      = 64
	nBoxes      = 8
)

var workloads = []string{"wan_ingest", "meta_mix", "bulk_stream"}

// newPlan instantiates a workload for seed.
func newPlan(name string, seed int64) (*plan, error) {
	p := &plan{name: name, seed: seed, prefix: fmt.Sprintf("/%s-s%d", name, seed), setups: 3}
	switch name {
	case "wan_ingest":
		p.rate, p.delay, p.fill = 200, 5*time.Millisecond, true
		p.colls = collNames(p.prefix, "c")
		for k := 0; k < nBoxes; k++ {
			p.containers = append(p.containers, fmt.Sprintf("%s/box%d", p.colls[k*(nColls/nBoxes)], k))
		}
		p.gen = p.streams(p.ingestOp)
	case "meta_mix":
		// A closed loop: on a 2-core virtual machine whose host steals
		// CPU in bursts, an open loop anywhere near the server's ~1900
		// ops/s sits on the latency knee whenever the host is busy (at
		// 1000, 500 and 250 ops/s its p50 and p99 spread 2-5x across
		// runs). Callers that wait for their replies slow down with the
		// machine instead of queueing behind it. Seeding 20k objects
		// takes about 20 s, itself an average over 20k writes, so two
		// set-ups keep a run near a minute.
		p.callers, p.setups = 4, 2
		p.seedPopulation()
		p.gen = p.streams(p.mixOp)
	case "bulk_stream":
		p.callers = 1
		p.colls = []string{p.prefix + "/bulk"}
		p.bulkBase = make([]byte, bulkSize)
		fill(p.bulkBase, mix(uint64(seed), 0, 0))
		p.gen = func(stream, i int) op {
			return op{
				kind: opBulk, resource: "vault0", size: bulkSize,
				path:    fmt.Sprintf("%s/bulk/s%d-%05d.dat", p.prefix, stream, i),
				content: mix(uint64(seed), uint64(stream), uint64(i)),
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return p, nil
}

func collNames(prefix, stem string) []string {
	out := make([]string, nColls)
	for i := range out {
		out[i] = fmt.Sprintf("%s/%s%02d", prefix, stem, i)
	}
	return out
}

// streams gives each stream its own generator, drawn in op order.
func (p *plan) streams(next func(r *rand.Rand, stream, i int) op) func(stream, i int) op {
	rs := map[int]*rand.Rand{}
	return func(stream, i int) op {
		r, ok := rs[stream]
		if !ok {
			r = rand.New(rand.NewSource(int64(mix(uint64(p.seed), uint64(stream), 0xC0FFEE))))
			rs[stream] = r
		}
		return next(r, stream, i)
	}
}

var (
	creators = []string{"2MASS team", "DPOSS team", "SDSC archive", "NPACI curator"}
	subjects = []string{"sky survey", "calibration", "galaxy", "nebula", "cluster"}
)

// dublinCore is the four descriptive Dublin Core AVUs of one put.
func dublinCore(r *rand.Rand, i int) []types.AVU {
	return workload.DublinCore(
		"frame "+strconv.Itoa(i),
		creators[r.Intn(len(creators))],
		subjects[r.Intn(len(subjects))],
		fmt.Sprintf("exposure %d of field %d", i, r.Intn(1000)),
	)[:4]
}

// ingestOp: a 2–16 KiB put with Dublin Core metadata into one of 64
// collections; one in four appends into one of 8 containers.
func (p *plan) ingestOp(r *rand.Rand, stream, i int) op {
	o := op{
		kind:     opPut,
		resource: "vault0",
		size:     2048 + r.Intn(14*1024+1),
		content:  r.Uint64(),
		meta:     dublinCore(r, i),
	}
	o.path = fmt.Sprintf("%s/s%d-%07d.dat", p.colls[r.Intn(nColls)], stream, i)
	if r.Intn(4) == 0 {
		o.container = p.containers[r.Intn(nBoxes)]
	}
	return o
}

// seedPopulation draws meta_mix's 20k SkySurvey objects across 64 plate
// collections, with their checksums and query attributes.
func (p *plan) seedPopulation() {
	specs := workload.NewGen(p.seed).SkySurvey(p.prefix, metaPop, nColls)
	p.colls = p.colls[:0]
	for i := 0; i < nColls && i < len(specs); i++ {
		p.colls = append(p.colls, specs[i].Collection)
	}
	buf := make([]byte, metaSize)
	p.pop = make([]object, len(specs))
	for i, s := range specs {
		s.Size = metaSize
		fill(buf, mix(uint64(p.seed), 0, uint64(i)))
		ob := object{spec: s, crc: crc32.Checksum(buf, castagnoli)}
		for _, m := range s.Meta {
			switch m.Name {
			case "band":
				ob.band = m.Value
			case "mag":
				ob.mag, _ = strconv.ParseFloat(m.Value, 64)
			}
		}
		p.pop[i] = ob
	}
	// Zipf ranks map to objects through a seeded permutation, so the hot
	// keys spread over collections and shards.
	perm := rand.New(rand.NewSource(p.seed)).Perm(len(p.pop))
	zipfs := map[*rand.Rand]*rand.Zipf{}
	p.hot = func(r *rand.Rand) int {
		z, ok := zipfs[r]
		if !ok {
			z = rand.NewZipf(r, 1.1, 1, uint64(len(perm)-1))
			zipfs[r] = z
		}
		return perm[z.Uint64()]
	}
}

var bands = []string{"J", "H", "K", "g", "r", "i"}

// mixOp: 60% get, 20% stat, 15% query, 5% put. Gets and stats pick
// objects Zipf-distributed; two thirds of the queries are scoped to one
// collection, one third to the root (a scatter-gather over all shards).
func (p *plan) mixOp(r *rand.Rand, stream, i int) op {
	u := r.Intn(100)
	switch {
	case u < 80:
		ob := &p.pop[p.hot(r)]
		o := op{kind: opGet, path: ob.spec.Path(), size: metaSize, wantCRC: ob.crc}
		if u >= 60 {
			o.kind = opStat
		}
		return o
	case u < 95:
		band := bands[r.Intn(len(bands))]
		scope, width := p.colls[r.Intn(len(p.colls))], 3.0
		if r.Intn(3) == 0 {
			scope, width = "/", 0.25
		}
		lo := 2 + r.Float64()*(14-width)
		q := mcat.Query{Scope: scope, Conds: []mcat.Condition{
			{Attr: "band", Op: "=", Value: band},
			{Attr: "mag", Op: ">=", Value: fmt.Sprintf("%.2f", lo)},
			{Attr: "mag", Op: "<", Value: fmt.Sprintf("%.2f", lo+width)},
		}}
		return op{kind: opQuery, query: q, wantHits: p.expectHits(q)}
	default:
		return op{
			kind:     opPut,
			resource: "mirror",
			path:     fmt.Sprintf("%s/s%d-%07d.dat", p.colls[r.Intn(len(p.colls))], stream, i),
			size:     metaSize,
			content:  r.Uint64(),
			meta:     dublinCore(r, i),
		}
	}
}

// expectHits counts the seeded objects a band/mag query must return.
// Objects put during the run carry only Dublin Core metadata, so they
// never match.
func (p *plan) expectHits(q mcat.Query) int {
	band := q.Conds[0].Value
	lo, _ := strconv.ParseFloat(q.Conds[1].Value, 64)
	hi, _ := strconv.ParseFloat(q.Conds[2].Value, 64)
	n := 0
	for i := range p.pop {
		ob := &p.pop[i]
		if ob.band == band && ob.mag >= lo && ob.mag < hi &&
			(q.Scope == "/" || ob.spec.Collection == q.Scope) {
			n++
		}
	}
	return n
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mix hashes a seed and two indices into one 64-bit value (splitmix64
// finalizer over a simple combination).
func mix(a, b, c uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9 ^ c*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// fill writes the byte stream of seed s into b (splitmix64).
func fill(b []byte, s uint64) {
	for i := 0; i < len(b); i += 8 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(z >> (8 * j))
		}
	}
}
