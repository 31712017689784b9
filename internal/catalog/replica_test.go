package catalog

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rpai/internal/engine"
	"rpai/internal/serve"
)

const (
	// sqlVWAPCount is sqlVWAP's COUNT(*) variant: a late joiner of the VWAP
	// state set through its count index.
	sqlVWAPCount = `SELECT COUNT(*) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
	// sqlVWAPFiltered filters the threshold subquery, which changes the
	// maintained state: it founds a state set of its own.
	sqlVWAPFiltered = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1 WHERE b1.volume > 2)
      < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`
)

// encodeGroups canonicalizes grouped results for bit-identical comparison:
// key and value IEEE-754 bits in ResultGrouped's sorted order.
func encodeGroups(gs []engine.GroupResult) string {
	var b []byte
	for _, g := range gs {
		for _, k := range g.Key {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(k))
		}
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(g.Value))
	}
	return string(b)
}

// catalogState is every registered query's grouped results, encoded.
func catalogState(t *testing.T, s *Service) map[QueryID]string {
	t.Helper()
	out := map[QueryID]string{}
	for _, ex := range s.List() {
		g, err := s.ResultGrouped(ex.ID)
		if err != nil {
			t.Fatal(err)
		}
		out[ex.ID] = encodeGroups(g)
	}
	return out
}

func sameState(a, b map[QueryID]string) bool {
	if len(a) != len(b) {
		return false
	}
	for id, g := range a {
		if w, ok := b[id]; !ok || w != g {
			return false
		}
	}
	return true
}

// waitState polls until the replica serves exactly want — the same queries,
// each bit-identical — failing with the replica's sticky error if it gave up.
func waitState(t *testing.T, rep *Service, want map[QueryID]string, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !sameState(catalogState(t, rep), want) {
		if time.Now().After(deadline) {
			if err := rep.rep.stop(); err != nil {
				t.Fatalf("%s: replica stopped following: %v", what, err)
			}
			t.Fatalf("%s: replica serves %d queries, never converged on the primary's %d", what, rep.Len(), len(want))
		}
		time.Sleep(time.Millisecond)
	}
}

// primaryState drains the primary and returns its state.
func primaryState(t *testing.T, p *Service) map[QueryID]string {
	t.Helper()
	if err := p.DrainAll(); err != nil {
		t.Fatal(err)
	}
	return catalogState(t, p)
}

// viewConverges folds sub's frames into view until it equals want.
func viewConverges(t *testing.T, sub *serve.Subscription, view *serve.View, want []engine.GroupResult, what string) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for encodeGroups(view.Grouped()) != encodeGroups(want) {
		select {
		case fr, ok := <-sub.Frames():
			if !ok {
				t.Fatalf("%s: subscription closed", what)
			}
			if err := view.Apply(fr); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-deadline:
			t.Fatalf("%s: subscriber view never converged", what)
		}
	}
}

// TestReplicaCatchUp follows a live primary sharing its directory: two
// state sets, one joined by a late fork before the replica boots mid-stream;
// then a runtime founder and a late COUNT(*) joiner registered while the
// replica follows, a Checkpoint rotation, and an unregistration. At every
// step the replica — on a different shard count — converges bit-identically
// with the primary on every query; a subscription open across the rotation
// stays open and converges; every write is refused with ErrReadOnly.
func TestReplicaCatchUp(t *testing.T) {
	dir := t.TempDir()
	primary, err := New(Options{PartitionBy: []string{"sym"}, Shards: 2, BatchSize: 16, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	idVWAP, _, err := primary.Register(sqlVWAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := primary.Register(sqlEq); err != nil {
		t.Fatal(err)
	}
	events := catEvents(61, 3000, 9)
	applyBatches(t, events[:600], 40, primary.ApplyBatch)
	// A late threshold variant joins the VWAP set mid-generation: forked.
	late, ex, err := primary.Register(sqlVWAP90)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.SharedFamily) != 1 || ex.StateSince != 0 {
		t.Fatalf("late variant did not join the VWAP set retroactively: %+v", ex)
	}
	applyBatches(t, events[600:1000], 40, primary.ApplyBatch)

	rep, err := OpenReplica(Options{Dir: dir, Shards: 3, BatchSize: 8}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitState(t, rep, primaryState(t, primary), "mid-stream boot")
	if got := len(rep.Stats()); got != 3 {
		t.Fatalf("replica serves %d queries, want 3", got)
	}
	sub, err := rep.Subscribe(idVWAP, serve.SubOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	view := serve.NewView()

	// Writes are the primary's alone.
	if err := rep.ApplyBatch(events[:1]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica ApplyBatch = %v, want ErrReadOnly", err)
	}
	if _, _, err := rep.Register(sqlVWAPFiltered); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica Register = %v, want ErrReadOnly", err)
	}
	if err := rep.Unregister(late); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica Unregister = %v, want ErrReadOnly", err)
	}
	if err := rep.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica Checkpoint = %v, want ErrReadOnly", err)
	}

	// Runtime registrations while the replica follows: a new state set and a
	// late COUNT(*) joiner of the VWAP set.
	applyBatches(t, events[1000:1400], 40, primary.ApplyBatch)
	founder, _, err := primary.Register(sqlVWAPFiltered)
	if err != nil {
		t.Fatal(err)
	}
	applyBatches(t, events[1400:1800], 40, primary.ApplyBatch)
	if _, _, err := primary.Register(sqlVWAPCount); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, events[1800:2200], 40, primary.ApplyBatch)
	waitState(t, rep, primaryState(t, primary), "runtime registrations")
	if _, err := rep.Result(founder); err != nil {
		t.Fatalf("runtime founder unreadable on the replica: %v", err)
	}

	// A rotation: the replica reloads every kept set in place and tails the
	// new generation's WAL; the subscription stays attached.
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, events[2200:2600], 40, primary.ApplyBatch)
	want := primaryState(t, primary)
	waitState(t, rep, want, "after rotation")
	g, err := rep.ResultGrouped(idVWAP)
	if err != nil {
		t.Fatal(err)
	}
	viewConverges(t, sub, view, g, "subscription across rotation")

	// Unregistration on the primary retires the query on the replica.
	if err := primary.Unregister(founder); err != nil {
		t.Fatal(err)
	}
	applyBatches(t, events[2600:], 40, primary.ApplyBatch)
	waitState(t, rep, primaryState(t, primary), "after unregister")
	if _, err := rep.Result(founder); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("unregistered query on the replica: %v, want ErrUnknownQuery", err)
	}
	g, err = rep.ResultGrouped(idVWAP)
	if err != nil {
		t.Fatal(err)
	}
	viewConverges(t, sub, view, g, "subscription after unregister")
	if err := rep.Close(); err != nil {
		t.Fatalf("replica Close: %v", err)
	}
}

// stagedDir is a replica directory fed by hand from a primary's files, so a
// test decides exactly which bytes of the WAL and which manifest the
// replica can see at each moment.
type stagedDir struct {
	t        *testing.T
	src, dst string
}

// copyTree copies path (a file or directory, relative to the primary's
// directory) into the staged directory.
func (d stagedDir) copyTree(rel string) {
	d.t.Helper()
	err := filepath.WalkDir(filepath.Join(d.src, rel), func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		r, err := filepath.Rel(d.src, p)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(d.dst, r), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(d.dst, r), b, 0o644)
	})
	if err != nil {
		d.t.Fatal(err)
	}
}

// writeFile installs b under name by rename, as the primary installs its
// manifest.
func (d stagedDir) writeFile(name string, b []byte) {
	d.t.Helper()
	tmp := filepath.Join(d.dst, name+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		d.t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dst, name)); err != nil {
		d.t.Fatal(err)
	}
}

// walRecordEnds returns the byte offset one past each record of a WAL image
// (index 0 is the end of the header record).
func walRecordEnds(t *testing.T, b []byte) []int {
	t.Helper()
	off := len("RPWL")
	var ends []int
	for off+8 <= len(b) {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 8 + n
		if off > len(b) {
			break
		}
		ends = append(ends, off)
	}
	return ends
}

// TestReplicaChaos feeds a replica a primary's directory by hand: the WAL
// grows by random byte counts (torn tails most of the time), the replica is
// killed and rebooted at random points, and each manifest change — a late
// fork join, a runtime founder — appears when the log reaches the record it
// was committed at. The replica must never serve a state that is not a
// batch boundary of the primary's history, and must converge on the final
// state — including across a Checkpoint rotation staged mid-flight, through
// which a subscription stays open.
func TestReplicaChaos(t *testing.T) {
	primDir, repDir := t.TempDir(), t.TempDir()
	primary, err := New(Options{PartitionBy: []string{"sym"}, Shards: 1, BatchSize: 1 << 20, Dir: primDir})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	idVWAP, _, err := primary.Register(sqlVWAP)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := primary.Register(sqlEq); err != nil {
		t.Fatal(err)
	}
	readManifest := func() []byte {
		b, err := os.ReadFile(filepath.Join(primDir, catalogName))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Phase 1: one WAL record per batch. After every batch, record each
	// query's state — boundaries[k] is the state after k batches, and every
	// state a correct replica may serve is in prefixes — and the manifest
	// changes with the record index they took effect at.
	events := catEvents(53, 2400, 7)
	const batchLen = 40
	prefixes := map[QueryID]map[string]bool{}
	var boundaries []map[QueryID]string
	record := func() map[QueryID]string {
		st := primaryState(t, primary)
		for id, g := range st {
			if prefixes[id] == nil {
				prefixes[id] = map[string]bool{encodeGroups(nil): true}
			}
			prefixes[id][g] = true
		}
		return st
	}
	type change struct {
		at       int // WAL record index the change took effect at
		manifest []byte
		fork     string // fork directory to stage with it, if any
	}
	changes := []change{{at: 0, manifest: readManifest()}}
	boundaries = append(boundaries, record())
	// The late variant joins retroactively: a replica that adopts its
	// manifest entry before applying the records up to the join serves the
	// variant's inherited state at an earlier boundary. A dedicated service
	// fed every batch holds exactly those states.
	const lateID = QueryID(3)
	shadow, err := serve.ForQuery(mustParse(t, sqlVWAP90), []string{"sym"}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()
	lateStates := map[string]bool{}
	nBatches := 0
	for i := 0; i < len(events); i += batchLen {
		switch nBatches {
		case 20: // a late variant joins the VWAP set: a fork at record 20
			if id, _, err := primary.Register(sqlVWAP90); err != nil || id != lateID {
				t.Fatalf("late variant registered as %d (%v), want %d", id, err, lateID)
			}
			changes = append(changes, change{at: nBatches, manifest: readManifest(),
				fork: filepath.Join("g1", "s1-f20")})
			boundaries[nBatches] = record()
		case 40: // a runtime founder: a new state set from record 40
			if _, _, err := primary.Register(sqlVWAPFiltered); err != nil {
				t.Fatal(err)
			}
			changes = append(changes, change{at: nBatches, manifest: readManifest()})
			boundaries[nBatches] = record()
		}
		batch := events[i:min(i+batchLen, len(events))]
		if err := primary.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := shadow.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := shadow.Drain(); err != nil {
			t.Fatal(err)
		}
		lateStates[encodeGroups(shadow.ResultGrouped())] = true
		nBatches++
		boundaries = append(boundaries, record())
	}
	for g := range lateStates {
		prefixes[lateID][g] = true
	}
	phase1 := boundaries[nBatches]
	if _, err := os.Stat(filepath.Join(primDir, changes[1].fork)); err != nil {
		t.Fatalf("late join left no fork snapshot: %v", err)
	}

	stage := stagedDir{t: t, src: primDir, dst: repDir}
	walName := filepath.Base(walPath(primDir, 1))
	full, err := os.ReadFile(walPath(primDir, 1))
	if err != nil {
		t.Fatal(err)
	}
	ends := walRecordEnds(t, full)
	if len(ends) != nBatches+1 {
		t.Fatalf("WAL holds %d records, fed %d batches", len(ends)-1, nBatches)
	}
	// recordsIn counts complete records within the first n staged bytes.
	recordsIn := func(n int) int {
		k := 0
		for k+1 < len(ends) && ends[k+1] <= n {
			k++
		}
		return k
	}
	next := 0 // next manifest change to stage
	stageChanges := func(records int) {
		for next < len(changes) && changes[next].at <= records {
			if changes[next].fork != "" {
				stage.copyTree(changes[next].fork)
			}
			stage.writeFile(catalogName, changes[next].manifest)
			next++
		}
	}
	rng := rand.New(rand.NewSource(97))
	cut := ends[0] + 3 // past the header, mid-first-record
	stage.writeFile(walName, full[:cut])
	stageChanges(0)

	boot := func() *Service {
		t.Helper()
		// One shard: a multi-shard read may mix shards publishing different
		// records, and only whole records are batch boundaries.
		r, err := OpenReplica(Options{Dir: repDir, Shards: 1}, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	replica := boot()
	checkPrefix := func(what string) {
		t.Helper()
		for id, g := range catalogState(t, replica) {
			if !prefixes[id][g] {
				t.Fatalf("%s: replica serves query %d in a state that is no batch boundary", what, id)
			}
		}
	}
	// waitAt waits until the replica serves exactly the primary's state at
	// batch boundary k.
	waitAt := func(k int, what string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !sameState(catalogState(t, replica), boundaries[k]) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica never reached batch boundary %d", what, k)
			}
			checkPrefix(what + " (lagging)")
			time.Sleep(100 * time.Microsecond)
		}
	}

	steps, restarts := 0, 0
	for cut < len(full) {
		steps++
		// Grow the staged WAL by a random amount — often a torn tail — and
		// stage every manifest change the complete records now reach.
		grown := min(cut+1+rng.Intn(2048), len(full))
		f, err := os.OpenFile(filepath.Join(repDir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(full[cut:grown]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		cut = grown
		stageChanges(recordsIn(cut))
		if rng.Intn(4) == 0 {
			waitAt(recordsIn(cut), "after growth")
		}
		checkPrefix("after growth")
		if rng.Intn(8) == 0 {
			// Kill the follower and reboot: the fresh replica restores the
			// staged snapshots, replays the staged WAL, and must land on the
			// same states.
			if err := replica.Close(); err != nil {
				t.Fatal(err)
			}
			replica = boot()
			restarts++
			checkPrefix("after restart")
		}
	}
	t.Logf("staged %d WAL bytes in %d steps, %d replica restarts", len(full), steps, restarts)
	waitState(t, replica, phase1, "end of phase 1")

	// Phase 2: rotate the primary and keep feeding; stage the new generation
	// mid-flight and retire the old one. The running replica must reload
	// every set in place and converge, and a subscription attached before
	// the rotation must follow it.
	sub, err := replica.Subscribe(idVWAP, serve.SubOptions{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	view := serve.NewView()
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	more := catEvents(59, 800, 7)
	applyBatches(t, more, batchLen, primary.ApplyBatch)
	final := primaryState(t, primary)
	stage.copyTree("g2")
	stage.copyTree(filepath.Base(walPath(primDir, 2)))
	stage.writeFile(catalogName, readManifest())
	os.Remove(filepath.Join(repDir, walName))
	os.RemoveAll(filepath.Join(repDir, "g1"))
	waitState(t, replica, final, "after staged rotation")
	g, err := replica.ResultGrouped(idVWAP)
	if err != nil {
		t.Fatal(err)
	}
	viewConverges(t, sub, view, g, "subscription across rotation")
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaRefusesNonCheckpoint checks the boot-time error paths: no
// directory, an empty directory, and a directory holding only a serve
// snapshot export are all refused, and the refusal writes nothing.
func TestReplicaRefusesNonCheckpoint(t *testing.T) {
	if _, err := OpenReplica(Options{}, 0); err == nil {
		t.Fatal("replica booted without a directory")
	}
	empty := t.TempDir()
	if _, err := OpenReplica(Options{Dir: empty}, 0); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("replica of an empty directory: %v, want a not-exist error", err)
	}

	export := t.TempDir()
	svc, err := serve.ForQuery(mustParse(t, sqlVWAP), []string{"sym"}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ApplyBatch(catEvents(3, 100, 3)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(export); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	before := dirListing(t, export)
	if _, err := OpenReplica(Options{Dir: export}, 0); err == nil {
		t.Fatal("replica booted from a serve snapshot export")
	}
	requireSameListing(t, "refused replica boot", before, dirListing(t, export))
}
