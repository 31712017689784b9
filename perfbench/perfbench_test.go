package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"rpai/internal/catalog"
	"rpai/internal/engine"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	take := func(seed int64, n int) []ev {
		g := newGen(seed)
		out := make([]ev, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := take(7, 20000), take(7, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	if reflect.DeepEqual(a, take(8, 20000)) {
		t.Fatal("different seeds produced the same trace")
	}
	// Every delete retracts a live tuple; about a quarter are deletes.
	live := map[ev]int{}
	deletes := 0
	for _, e := range a {
		k := ev{X: 1, Sym: e.Sym, Price: e.Price, Vol: e.Vol}
		if e.X < 0 {
			deletes++
			if live[k] == 0 {
				t.Fatalf("delete of a tuple that is not live: %+v", e)
			}
		}
		live[k] += int(e.X)
		if e.Sym < 0 || e.Sym >= partitions || e.Price < 1 || e.Price > 64 || e.Vol < 1 || e.Vol > 32 {
			t.Fatalf("event out of range: %+v", e)
		}
	}
	if f := float64(deletes) / float64(len(a)); math.Abs(f-deleteFrac) > 0.02 {
		t.Fatalf("delete fraction %.3f, want about %.2f", f, deleteFrac)
	}
}

func TestWorkloadsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 3)
		if !reflect.DeepEqual(a.sqls, b.sqls) || a.why == "" {
			t.Fatalf("%s: query set not deterministic or no reason recorded", name)
		}
	}
	w, _ := newWorkload("shared_64q", 3)
	if len(w.sqls) != 64 {
		t.Fatalf("shared_64q registers %d queries, want 64", len(w.sqls))
	}
	if _, err := newWorkload("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// The 64 queries must land on exactly 8 state sets; registerAll enforces it.
func TestSharedQueriesFormEightSets(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w, _ := newWorkload("shared_64q", seed)
		cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := registerAll(cat, w); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cat.Close()
	}
}

func TestStreamPlacesAndNumbersMarkers(t *testing.T) {
	s := &stream{g: newGen(1), markerEvery: 4}
	var got []int
	for i := 1; i <= 12; i++ {
		e, k := s.next()
		if (i%4 == 0) != (k >= 0) {
			t.Fatalf("slot %d: marker %d", i, k)
		}
		if k >= 0 {
			if e != markerEv(k) {
				t.Fatalf("marker %d carries %+v", k, e)
			}
			got = append(got, k)
		}
	}
	s.markerEvery = 1
	if _, k := s.next(); k != 3 {
		t.Fatalf("probe marker numbered %d, want 3", k)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("markers numbered %v", got)
	}
}

func TestTailRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		pct  float64
		ok   bool
		want float64
	}{
		{9, 0, false, 0},
		{19, 0, false, 0},
		{20, 50, true, 10},
		{99, 50, true, 50},
		{100, 90, true, 90},
		{999, 90, true, 900},
		{1000, 99, true, 990},
		{10000, 99.9, true, 9990},
	} {
		pct, v, ok := tail(samples(c.n))
		if ok != c.ok || (ok && (pct != c.pct || v != c.want)) {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g ok=%v", c.n, pct, v, ok, c.pct, c.want, c.ok)
		}
	}
	if supported(999, 99) || !supported(1000, 99) {
		t.Error("p99 needs ten samples beyond it")
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.5); q != 2 {
		t.Errorf("nearest-rank median of 1..4 = %g, want 2", q)
	}
}

// The marker book must agree with the catalog's own value for the marker
// group after each marker, and map a frame back to the newest marker in it.
func TestMarkerMatching(t *testing.T) {
	w, _ := newWorkload("shared_64q", 2)
	const n = 50
	book, err := newMarkerBook(w.sqls[0], n)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := registerAll(cat, w); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if err := cat.ApplyBatch([]engine.Event{markerEv(k).event()}); err != nil {
			t.Fatal(err)
		}
		if err := cat.DrainAll(); err != nil {
			t.Fatal(err)
		}
		groups, err := cat.ResultGrouped(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := book.observed(groups); got != k {
			t.Fatalf("after marker %d the frame maps to marker %d (groups %v)", k, got, groups)
		}
	}
	other := []engine.GroupResult{{Key: []float64{3}, Value: 1e9}, {Key: []float64{markerSym}, Value: -1}}
	if got := book.observed(other); got != -1 {
		t.Fatalf("unknown value mapped to marker %d", got)
	}
}

func TestResultsDiffIsBitLevel(t *testing.T) {
	a := results{1: {Scalar: 0, Grouped: []engine.GroupResult{{Key: []float64{1}, Value: 2}}}}
	b := results{1: {Scalar: math.Copysign(0, -1), Grouped: []engine.GroupResult{{Key: []float64{1}, Value: 2}}}}
	if a.diff(a) != "" {
		t.Fatal("identical results differ")
	}
	if a.diff(b) == "" {
		t.Fatal("+0 and -0 compared equal")
	}
	c := results{1: {Scalar: 0, Grouped: []engine.GroupResult{{Key: []float64{1}, Value: math.Nextafter(2, 3)}}}}
	if a.diff(c) == "" {
		t.Fatal("a one-ulp group difference went unnoticed")
	}
}

// Every metric name stays within [A-Za-z0-9_.-], and the lists the code
// reports are exactly the ones BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range append(append([]string{}, endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q leaves [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	sorted := func(xs []string) []string {
		ys := append([]string(nil), xs...)
		sort.Strings(ys)
		return ys
	}
	if got := names(spec.Workloads); !reflect.DeepEqual(got, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, workloadNames)
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(sorted(got), sorted(endToEndMetrics)) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", got, endToEndMetrics)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(sorted(got), sorted(perLayerMetrics)) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", got, perLayerMetrics)
	}
}
