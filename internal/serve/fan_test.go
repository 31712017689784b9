package serve

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rpai/internal/engine"
	"rpai/internal/query"
)

func fanVWAP(c float64) *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(c, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			Op:   query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
		}},
	}
}

// sumLanes returns one plain SUM probe spec per threshold constant.
func sumLanes(consts []float64) []engine.ProbeSpec {
	specs := make([]engine.ProbeSpec, len(consts))
	for i, c := range consts {
		specs[i] = engine.ProbeSpec{Kind: query.Sum, Const: c}
	}
	return specs
}

// TestServeFanDifferential runs one service carrying SUM threshold lanes
// against K dedicated services over the same event stream and checks
// ProbeResult, ProbeResultGrouped and lane subscriptions are bit-identical
// per lane.
func TestServeFanDifferential(t *testing.T) {
	consts := []float64{0.3, 0.75, 0.9}
	specs := sumLanes(consts)
	opt := Options{Shards: 3, BatchSize: 8}
	fam, err := ForQuery(fanVWAP(consts[1]), []string{"broker"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer fam.Close()
	if err := fam.SetProbes(specs); err != nil {
		t.Fatalf("SetProbes: %v", err)
	}
	solo := make([]*Service[engine.Event], len(consts))
	for i, c := range consts {
		s, err := ForQuery(fanVWAP(c), []string{"broker"}, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		solo[i] = s
	}

	// A lane subscription per lane, attached before ingest.
	subs := make([]*Subscription, len(consts))
	for i := range specs {
		sp := specs[i]
		sub, err := fam.Subscribe(SubOptions{Probe: &sp, Buffer: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}

	rng := rand.New(rand.NewSource(3))
	var live []query.Tuple
	for batch := 0; batch < 30; batch++ {
		n := rng.Intn(12) + 1
		ev := make([]engine.Event, 0, n)
		for i := 0; i < n; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				ev = append(ev, engine.Delete(live[j]))
				live = append(live[:j], live[j+1:]...)
			} else {
				tu := query.Tuple{
					"price":  float64(rng.Intn(40)) + 1,
					"volume": float64(rng.Intn(9)) + 1,
					"broker": float64(rng.Intn(5)),
				}
				live = append(live, tu)
				ev = append(ev, engine.Insert(tu))
			}
		}
		if err := fam.ApplyBatch(ev); err != nil {
			t.Fatal(err)
		}
		for _, s := range solo {
			if err := s.ApplyBatch(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := fam.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, s := range solo {
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range consts {
			got, ok := fam.ProbeResult(specs[i])
			if !ok {
				t.Fatalf("batch %d: lane %v not installed", batch, c)
			}
			want := solo[i].Result()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("batch %d lane %v: ProbeResult %v, solo %v", batch, c, got, want)
			}
			gg, ok := fam.ProbeResultGrouped(specs[i])
			if !ok {
				t.Fatalf("batch %d: grouped lane %v not installed", batch, c)
			}
			wg := solo[i].ResultGrouped()
			if len(gg) != len(wg) {
				t.Fatalf("batch %d lane %v: %d groups, solo %d", batch, c, len(gg), len(wg))
			}
			for j := range gg {
				if math.Float64bits(gg[j].Value) != math.Float64bits(wg[j].Value) {
					t.Fatalf("batch %d lane %v group %v: %v, solo %v",
						batch, c, gg[j].Key, gg[j].Value, wg[j].Value)
				}
			}
		}
	}

	// Replay each lane subscription's frames into a View until it reaches
	// the lane's grouped results: the pump delivers asynchronously after the
	// last publication, so the replay reads until it converges.
	for i, c := range consts {
		want, _ := fam.ProbeResultGrouped(specs[i])
		view := NewView()
		deadline := time.After(10 * time.Second)
		for !groupsIdentical(view.Grouped(), want) {
			select {
			case fr := <-subs[i].Frames():
				if err := view.Apply(fr); err != nil {
					t.Fatalf("lane %v: %v", c, err)
				}
			case <-deadline:
				t.Fatalf("lane %v: replay never reached the lane's grouped results", c)
			}
		}
	}

	// Removing the lanes disables lane reads.
	if err := fam.SetProbes(nil); err != nil {
		t.Fatalf("SetProbes(nil): %v", err)
	}
	if err := fam.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, ok := fam.ProbeResult(specs[0]); ok {
		t.Fatalf("lane read succeeded after lanes removed")
	}
}
