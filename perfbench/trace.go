package main

import (
	"fmt"
	"math/rand"

	"rpai/internal/engine"
	"rpai/internal/query"
)

// The seeded input: a bids trace over 512 `sym` partitions, integer prices in
// [1,64] and volumes in [1,32] (so every result is an exact float sum and
// bit-identity is a meaningful check), with a quarter of the events deleting
// a uniformly chosen live tuple. Marker events live in their own partition
// (markerSym) and carry strictly increasing prices, so each marker moves the
// subscribed query's marker group to a value no earlier marker produced.
const (
	partitions = 512
	markerSym  = 100000
	deleteFrac = 0.25
)

// ev is one trace event in column form; X is the weight (+1 insert, -1
// delete).
type ev struct {
	X, Sym, Price, Vol float64
}

// fill writes the event's columns into a reusable tuple. The wire client
// encodes an event inside Apply, so one map can carry the whole stream.
func (e ev) fill(t query.Tuple) engine.Event {
	t["sym"], t["price"], t["volume"] = e.Sym, e.Price, e.Vol
	return engine.Event{X: e.X, Tuple: t}
}

// event allocates a fresh engine event (for in-process consumers that may
// keep the tuple).
func (e ev) event() engine.Event {
	return e.fill(query.Tuple{})
}

func markerEv(k int) ev { return ev{X: 1, Sym: markerSym, Price: float64(k + 1), Vol: 1} }

// gen is the deterministic bids generator. Live tuples are packed into a
// uint32 (sym 9 bits, price-1 6 bits, volume-1 5 bits) so a long closed-loop
// run keeps its delete pool small.
type gen struct {
	rng  *rand.Rand
	live []uint32
}

func newGen(seed int64) *gen { return &gen{rng: rand.New(rand.NewSource(seed))} }

func (g *gen) next() ev {
	if len(g.live) > 0 && g.rng.Float64() < deleteFrac {
		j := g.rng.Intn(len(g.live))
		p := g.live[j]
		g.live[j] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		return unpack(p, -1)
	}
	p := uint32(g.rng.Intn(partitions))<<11 | uint32(g.rng.Intn(64))<<5 | uint32(g.rng.Intn(32))
	g.live = append(g.live, p)
	return unpack(p, 1)
}

func unpack(p uint32, x float64) ev {
	return ev{X: x, Sym: float64(p >> 11), Price: float64(p>>5&63) + 1, Vol: float64(p&31) + 1}
}

// stream is the run's event sequence after the warm prefix: generator events
// with a marker in every markerEvery-th slot (none when markerEvery is 0),
// plus explicit markers for the post-load probe. Markers are numbered in
// send order across both.
type stream struct {
	g           *gen
	markerEvery int
	slot        int
	markers     int
}

func (s *stream) next() (e ev, marker int) {
	s.slot++
	if s.markerEvery > 0 && s.slot%s.markerEvery == 0 {
		return s.marker()
	}
	return s.g.next(), -1
}

func (s *stream) marker() (ev, int) {
	k := s.markers
	s.markers++
	return markerEv(k), k
}

// workload is one benchmark configuration. Everything in it derives from the
// workload name and the seed.
type workload struct {
	name string
	why  string
	// sqls are the registered queries; the first one is the subscribed and
	// polled query. They must share exactly sets state sets.
	sqls []string
	sets int
	// warmBase events go into the snapshot, warmTail more into the WAL tail
	// recovery must replay.
	warmBase, warmTail int
	// rate > 0 makes the run an open loop at that many events/s with a marker
	// every markerEvery events; rate 0 is a saturating closed loop followed by
	// the idle probe.
	rate        float64
	markerEvery int
	subscribers int
}

// The paced workload's rate sits well below the closed-loop capacity of one
// query on a 2-CPU host, so ingest layers idle and the push/read path sets
// latency.
const pacedRate = 100_000

var workloadNames = []string{"ingest_1q", "shared_64q", "push_paced"}

func newWorkload(name string, seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch name {
	case "ingest_1q":
		return workload{
			name:     name,
			why:      "one query under saturating pipelined ingest: wire decode, WAL append, serve worker, engine and RPAI tree on the critical path, no fan-out or subscribers",
			sqls:     []string{vwapSQL("SUM(b.price * b.volume)", "", threshold(rng), "")},
			sets:     1,
			warmBase: 600_000, warmTail: 400_000,
		}, nil
	case "shared_64q":
		return workload{
			name:     name,
			why:      "64 queries on 8 shared state sets under the same closed loop: catalog fan-out and probe lanes dominate ingest, recovering 8 sets dominates setup",
			sqls:     sharedSQL(rng),
			sets:     8,
			warmBase: 150_000, warmTail: 60_000,
		}, nil
	case "push_paced":
		return workload{
			name:     name,
			why:      "open loop at a fixed rate well below capacity with 16 push subscribers and a pull reader: snapshot publish, push frames and reads set latency",
			sqls:     []string{vwapSQL("SUM(b.price * b.volume)", "", threshold(rng), "")},
			sets:     1,
			warmBase: 600_000, warmTail: 400_000,
			rate:        pacedRate,
			markerEvery: 100,
			subscribers: 16,
		}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var thresholds = []string{"0.60", "0.65", "0.70", "0.75", "0.80", "0.85", "0.90"}

func threshold(rng *rand.Rand) string { return thresholds[rng.Intn(len(thresholds))] }

func vwapSQL(agg, residual, thr, filter string) string {
	return fmt.Sprintf("SELECT %s FROM bids b WHERE %s%s * (SELECT SUM(b1.volume) FROM bids b1%s) < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)",
		agg, residual, thr, filter)
}

// sharedSQL builds 8 state sets of 8 queries. A set is one inner filter
// (distinct maintained state); its members mix threshold-family, SUM/COUNT/
// AVG and residual-filter variants, which all probe the set's one state.
func sharedSQL(rng *rand.Rand) []string {
	const sum, cnt, avg = "SUM(b.price * b.volume)", "COUNT(*)", "AVG(b.price * b.volume)"
	var out []string
	for set := 0; set < 8; set++ {
		filter := fmt.Sprintf(" WHERE b1.volume > %d", set)
		// Distinct thresholds and residual constants in the middle band keep
		// the lane count and the gated share of partitions the same for
		// every seed, so seeds differ in constants, not in cost.
		thr := rng.Perm(len(thresholds))
		res := func(i int) string { return fmt.Sprintf("b.sym > %d AND ", partitions/2-64+32*i+rng.Intn(32)) }
		out = append(out,
			vwapSQL(sum, "", thresholds[thr[0]], filter),
			vwapSQL(cnt, "", thresholds[thr[0]], filter),
			vwapSQL(avg, "", thresholds[thr[0]], filter),
			vwapSQL(sum, "", thresholds[thr[1]], filter),
			vwapSQL(sum, "", thresholds[thr[2]], filter),
			vwapSQL(cnt, "", thresholds[thr[3]], filter),
			vwapSQL(sum, res(0), thresholds[thr[0]], filter),
			vwapSQL(sum, res(2), thresholds[thr[4]], filter),
		)
	}
	return out
}
