package bench

import (
	"strconv"
	"strings"
	"testing"
)

// goldenReport builds a minimal serve-shaped report with one throughput cell
// and one latency cell, the shape every golden case perturbs.
func goldenReport(expName string, evPerSec, elapsedMS float64) string {
	return `{
  "experiment": "` + expName + `",
  "gomaxprocs": 1,
  "num_cpu": 1,
  "iterations": 3,
  "points": [
    {"workload": "orderbook-vwap", "shards": 2, "events": 1000,
     "events_per_sec": ` + strconv.FormatFloat(evPerSec, 'g', -1, 64) + `,
     "elapsed_ms": ` + strconv.FormatFloat(elapsedMS, 'g', -1, 64) + `,
     "result": 42}
  ]
}`
}

func mustCompare(t *testing.T, oldDoc, newDoc string, threshold float64) *CompareReport {
	t.Helper()
	rep, err := Compare([]byte(oldDoc), []byte(newDoc), threshold)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	return rep
}

func rowStatus(t *testing.T, rep *CompareReport, metric string) string {
	t.Helper()
	for _, r := range rep.Rows {
		if r.Metric == metric {
			return r.Status
		}
	}
	t.Fatalf("metric %q not compared; rows: %+v", metric, rep.Rows)
	return ""
}

// TestCompareDetectsRegression injects a 20% throughput drop (with the
// matching latency increase) and requires the 15% gate to fail on both
// metrics.
func TestCompareDetectsRegression(t *testing.T) {
	oldDoc := goldenReport("serve", 1000, 100)
	newDoc := goldenReport("serve", 800, 125) // -20% throughput, +25% latency
	rep := mustCompare(t, oldDoc, newDoc, 0.15)
	if got := rowStatus(t, rep, "events_per_sec"); got != "regressed" {
		t.Fatalf("events_per_sec status = %q, want regressed", got)
	}
	if got := rowStatus(t, rep, "elapsed_ms"); got != "regressed" {
		t.Fatalf("elapsed_ms status = %q, want regressed", got)
	}
	if rep.Regressions != 2 {
		t.Fatalf("Regressions = %d, want 2", rep.Regressions)
	}
	if err := rep.Gate(); err == nil {
		t.Fatal("Gate passed a 20% regression at a 15% threshold")
	}
}

// TestCompareDetectsImprovement: a 30% throughput gain is reported as
// improved and passes the gate.
func TestCompareDetectsImprovement(t *testing.T) {
	rep := mustCompare(t, goldenReport("serve", 1000, 100), goldenReport("serve", 1300, 77), 0.15)
	if got := rowStatus(t, rep, "events_per_sec"); got != "improved" {
		t.Fatalf("events_per_sec status = %q, want improved", got)
	}
	if rep.Regressions != 0 {
		t.Fatalf("Regressions = %d, want 0", rep.Regressions)
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("Gate rejected an improvement: %v", err)
	}
}

// TestCompareWithinThreshold: a 5% wobble in either direction stays "ok".
func TestCompareWithinThreshold(t *testing.T) {
	rep := mustCompare(t, goldenReport("serve", 1000, 100), goldenReport("serve", 950, 104), 0.15)
	for _, r := range rep.Rows {
		if r.Status != "ok" {
			t.Fatalf("%s status = %q (delta %.1f%%), want ok", r.Metric, r.Status, r.DeltaPct)
		}
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("Gate rejected noise-level deltas: %v", err)
	}
}

// TestCompareExperimentMismatch: reports of different experiments refuse to
// compare instead of producing a vacuous diff.
func TestCompareExperimentMismatch(t *testing.T) {
	_, err := Compare([]byte(goldenReport("serve", 1000, 100)),
		[]byte(goldenReport("wire", 1000, 100)), 0.15)
	if err == nil || !strings.Contains(err.Error(), "experiment mismatch") {
		t.Fatalf("err = %v, want experiment mismatch", err)
	}
}

// TestCompareMissingMeasurement: a cell present in the baseline but absent
// from the new report surfaces in Missing and fails the gate — a silently
// dropped cell must not pass CI.
func TestCompareMissingMeasurement(t *testing.T) {
	oldDoc := `{
  "experiment": "serve",
  "points": [
    {"workload": "a", "shards": 1, "events_per_sec": 1000},
    {"workload": "b", "shards": 2, "events_per_sec": 2000}
  ]
}`
	newDoc := `{
  "experiment": "serve",
  "points": [
    {"workload": "a", "shards": 1, "events_per_sec": 1000},
    {"workload": "c", "shards": 4, "events_per_sec": 3000}
  ]
}`
	rep := mustCompare(t, oldDoc, newDoc, 0.15)
	if len(rep.Missing) != 1 || !strings.Contains(rep.Missing[0], "workload=b") {
		t.Fatalf("Missing = %v, want the workload=b cell", rep.Missing)
	}
	if len(rep.Added) != 1 || !strings.Contains(rep.Added[0], "workload=c") {
		t.Fatalf("Added = %v, want the workload=c cell", rep.Added)
	}
	if err := rep.Gate(); err == nil {
		t.Fatal("Gate passed with a baseline measurement missing")
	}
}

// TestCompareArmMissingFromBaseline: a whole arm (a distinct "mode" value)
// present in the new report but absent from the baseline is an error — the
// baseline predates the schema and must be refreshed, not silently
// part-compared. The reverse direction (baseline has an extra arm) stays a
// per-cell Missing, which the gate already fails.
func TestCompareArmMissingFromBaseline(t *testing.T) {
	withModes := func(modes ...string) string {
		var cells []string
		for _, m := range modes {
			cells = append(cells, `{"queries": 16, "mode": "`+m+`", "events_per_sec": 1000}`)
		}
		return `{"experiment": "multi", "points": [` + strings.Join(cells, ",") + `]}`
	}
	_, err := Compare([]byte(withModes("shared", "distinct")),
		[]byte(withModes("shared", "family", "distinct")), 0.15)
	if err == nil || !strings.Contains(err.Error(), `arm "family" is missing from the old report`) {
		t.Fatalf("err = %v, want the family-arm refresh error", err)
	}
	rep := mustCompare(t, withModes("shared", "family", "distinct"), withModes("shared", "family"), 0.15)
	if len(rep.Missing) != 1 || !strings.Contains(rep.Missing[0], "mode=distinct") {
		t.Fatalf("Missing = %v, want the mode=distinct cell", rep.Missing)
	}
	if err := rep.Gate(); err == nil {
		t.Fatal("Gate passed with a baseline arm missing from the new report")
	}
}

// TestCompareMalformedJSON: truncated or non-JSON input is an error, not a
// clean exit.
func TestCompareMalformedJSON(t *testing.T) {
	good := goldenReport("serve", 1000, 100)
	for name, bad := range map[string]string{
		"truncated": good[:len(good)/2],
		"not-json":  "events per second: many",
		"empty":     "",
	} {
		if _, err := Compare([]byte(bad), []byte(good), 0.15); err == nil {
			t.Fatalf("%s old input: Compare did not fail", name)
		}
		if _, err := Compare([]byte(good), []byte(bad), 0.15); err == nil {
			t.Fatalf("%s new input: Compare did not fail", name)
		}
	}
}

// TestCompareTopLevelMetrics: scalar metrics outside any points array (e.g.
// a report-level ingest_ms) are gated too.
func TestCompareTopLevelMetrics(t *testing.T) {
	oldDoc := `{"experiment": "serve", "ingest_ms": 100, "points": []}`
	newDoc := `{"experiment": "serve", "ingest_ms": 150, "points": []}`
	rep := mustCompare(t, oldDoc, newDoc, 0.15)
	if got := rowStatus(t, rep, "ingest_ms"); got != "regressed" {
		t.Fatalf("ingest_ms status = %q, want regressed", got)
	}
	if err := rep.Gate(); err == nil {
		t.Fatal("Gate passed a 50% top-level latency regression")
	}
}

// TestCompareRealReports round-trips an actual matrix report through the
// harness: a report always compares clean against itself.
func TestCompareRealReports(t *testing.T) {
	cfg := QuickMatrix()
	cfg.Events, cfg.Partitions, cfg.Readers = 2000, 32, 2
	rep, err := Matrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MatrixJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	diff := mustCompare(t, string(data), string(data), 0.15)
	if diff.Regressions != 0 || len(diff.Missing) != 0 || len(diff.Added) != 0 {
		t.Fatalf("self-compare not clean: %+v", diff)
	}
	if len(diff.Rows) == 0 {
		t.Fatal("self-compare matched no metrics")
	}
	if err := diff.Gate(); err != nil {
		t.Fatal(err)
	}
}
