package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rpai/internal/checkpoint"
	"rpai/internal/engine"
)

// groupedMap flattens ResultGrouped into partition-key -> value (all serving
// tests partition by a single column).
func groupedMap(svc *Service[engine.Event]) map[float64]float64 {
	out := map[float64]float64{}
	for _, g := range svc.ResultGrouped() {
		out[g.Key[0]] = g.Value
	}
	return out
}

func requireSameGroups(t *testing.T, ctx string, got, want map[float64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partitions, want %d", ctx, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: partition %v = %v (present=%v), want %v", ctx, k, g, ok, w)
		}
	}
}

// buildCheckpointDir runs a shards-wide service over events, exports a
// checkpoint of the drained state to dir, and closes it.
func buildCheckpointDir(t *testing.T, dir string, shards int, events []engine.Event) {
	t.Helper()
	svc, err := ForQuery(vwapSpec(), []string{"sym"}, Options{Shards: shards, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := svc.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverMatchesReference is the core restore differential: a
// checkpoint of a 3-shard service must restore to exactly the serial
// reference state — under the original shard count and under different
// ones, which forces the partitions to rehash.
func TestRecoverMatchesReference(t *testing.T) {
	q := vwapSpec()
	events := symEvents(11, 5000, 17)
	dir := t.TempDir()
	buildCheckpointDir(t, dir, 3, events)
	want := serialReference(t, q, events)
	for _, shards := range []int{1, 2, 3, 5} {
		rec, err := RestoreForQuery(dir, q, []string{"sym"}, Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		requireSameGroups(t, "restored", groupedMap(rec), want)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverResumesService restores a checkpoint, applies more events,
// checkpoints again, and restores again: the full resume cycle, across two
// shard-count changes.
func TestRecoverResumesService(t *testing.T) {
	q := vwapSpec()
	first := symEvents(21, 2500, 13)
	dir := t.TempDir()
	buildCheckpointDir(t, dir, 3, first)

	rec, err := RestoreForQuery(dir, q, []string{"sym"}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	second := symEvents(22, 2500, 13)
	for _, e := range second {
		if err := rec.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Drain(); err != nil {
		t.Fatal(err)
	}
	all := append(append([]engine.Event(nil), first...), second...)
	want := serialReference(t, q, all)
	requireSameGroups(t, "resumed", groupedMap(rec), want)
	again := filepath.Join(t.TempDir(), "again")
	if err := rec.Checkpoint(again); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := RestoreForQuery(again, q, []string{"sym"}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSameGroups(t, "re-restored", groupedMap(rec2), want)
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExportCheckpoint snapshots a live service to a directory while it
// keeps ingesting, and restores from the export.
func TestExportCheckpoint(t *testing.T) {
	q := vwapSpec()
	events := symEvents(19, 1500, 11)
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 3, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := svc.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	export := filepath.Join(t.TempDir(), "export")
	if err := svc.Checkpoint(export); err != nil {
		t.Fatal(err)
	}
	// The live service keeps running after an export.
	if err := svc.Apply(events[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RestoreForQuery(export, q, []string{"sym"}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	requireSameGroups(t, "export", groupedMap(rec), serialReference(t, q, events))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCheckpointReplacesState swaps a checkpoint into a service that
// already holds different state: afterwards the service holds exactly the
// checkpoint's state, a subscriber attached before the swap converges on it
// through the Full frames the swap publishes, and ingest continues on top.
func TestLoadCheckpointReplacesState(t *testing.T) {
	q := vwapSpec()
	base := symEvents(31, 1200, 9)
	dir := t.TempDir()
	buildCheckpointDir(t, dir, 2, base)

	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 3, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.ApplyBatch(symEvents(32, 800, 13)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	// A one-frame buffer keeps most shards' attach frames pending in the
	// subscription when the swap lands: the Full frames must replace them,
	// stale keys included.
	sub, err := svc.Subscribe(SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := svc.LoadCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	more := symEvents(33, 600, 9)
	if err := svc.ApplyBatch(more); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, q, append(append([]engine.Event(nil), base...), more...))
	requireSameGroups(t, "loaded", groupedMap(svc), want)
	view := NewView()
	deadline := time.After(10 * time.Second)
	for {
		got := map[float64]float64{}
		for _, g := range view.Grouped() {
			got[g.Key[0]] = g.Value
		}
		if len(got) == len(want) && sameFloatMaps(got, want) {
			return
		}
		select {
		case fr := <-sub.Frames():
			if err := view.Apply(fr); err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("subscriber did not converge on the loaded state: %d of %d partitions", len(got), len(want))
		}
	}
}

func sameFloatMaps(a, b map[float64]float64) bool {
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// TestDurableErrors pins the error surface: Checkpoint after Close returns
// ErrClosed, restoring a directory without a checkpoint or without a
// Restore hook fails, and a damaged checkpoint is refused by LoadCheckpoint
// before any shard state is touched.
func TestDurableErrors(t *testing.T) {
	q := vwapSpec()
	svc, err := ForQuery(q, []string{"sym"}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(t.TempDir()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close = %v, want ErrClosed", err)
	}

	if _, err := RestoreForQuery(t.TempDir(), q, []string{"sym"}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "not a checkpoint directory") {
		t.Fatalf("Restore from empty dir = %v", err)
	}

	events := symEvents(3, 400, 3)
	dir := t.TempDir()
	buildCheckpointDir(t, dir, 2, events)
	if _, err := Restore(dir, Config[engine.Event]{
		Partition: func(e engine.Event, buf []float64) []float64 { return append(buf, e.Tuple["sym"]) },
		New:       func([]float64) Executor[engine.Event] { panic("unused") },
	}); err == nil || !strings.Contains(err.Error(), "Restore") {
		t.Fatalf("Restore without Durable = %v", err)
	}

	// Flip a byte in the middle of one shard's snapshot: the checksum must
	// catch it, and the live service must keep its own state.
	live, err := ForQuery(q, []string{"sym"}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := live.ApplyBatch(events[:100]); err != nil {
		t.Fatal(err)
	}
	if err := live.Drain(); err != nil {
		t.Fatal(err)
	}
	before := groupedMap(live)
	snap := checkpoint.SnapPath(dir, 1, 1)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := live.LoadCheckpoint(dir); err == nil {
		t.Fatal("LoadCheckpoint of a corrupt snapshot succeeded")
	}
	requireSameGroups(t, "after refused load", groupedMap(live), before)
}
