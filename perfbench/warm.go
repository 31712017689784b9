package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"rpai/internal/catalog"
	"rpai/internal/engine"
)

const applyBatch = 256

// results is every registered query's scalar and grouped result, keyed by
// QueryID.
type results map[catalog.QueryID]queryResult

type queryResult struct {
	Scalar  float64
	Grouped []engine.GroupResult
}

// diff reports the first bit-level difference between two result sets, or
// "" when they are identical.
func (r results) diff(got results) string {
	if len(r) != len(got) {
		return fmt.Sprintf("%d queries, want %d", len(got), len(r))
	}
	ids := make([]catalog.QueryID, 0, len(r))
	for id := range r {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		want, g := r[id], got[id]
		if math.Float64bits(want.Scalar) != math.Float64bits(g.Scalar) {
			return fmt.Sprintf("query %d: scalar %v, want %v", id, g.Scalar, want.Scalar)
		}
		if len(want.Grouped) != len(g.Grouped) {
			return fmt.Sprintf("query %d: %d groups, want %d", id, len(g.Grouped), len(want.Grouped))
		}
		for i, w := range want.Grouped {
			gg := g.Grouped[i]
			if len(w.Key) != len(gg.Key) || math.Float64bits(w.Value) != math.Float64bits(gg.Value) {
				return fmt.Sprintf("query %d group %d: %v=%v, want %v=%v", id, i, gg.Key, gg.Value, w.Key, w.Value)
			}
			for k := range w.Key {
				if math.Float64bits(w.Key[k]) != math.Float64bits(gg.Key[k]) {
					return fmt.Sprintf("query %d group %d: key %v, want %v", id, i, gg.Key, w.Key)
				}
			}
		}
	}
	return ""
}

// catalogResults reads every query of an in-process catalog after a drain.
func catalogResults(cat *catalog.Service) (results, error) {
	if err := cat.DrainAll(); err != nil {
		return nil, err
	}
	out := make(results)
	for _, ex := range cat.List() {
		s, err := cat.Result(ex.ID)
		if err != nil {
			return nil, err
		}
		g, err := cat.ResultGrouped(ex.ID)
		if err != nil {
			return nil, err
		}
		out[ex.ID] = queryResult{Scalar: s, Grouped: g}
	}
	return out, nil
}

// registerAll registers the workload's queries and checks the sharing shape
// the workload was designed around.
func registerAll(cat *catalog.Service, w workload) error {
	for _, sql := range w.sqls {
		if _, _, err := cat.Register(sql); err != nil {
			return fmt.Errorf("register %q: %w", sql, err)
		}
	}
	sets := make(map[uint64]bool)
	for _, q := range cat.Stats() {
		sets[q.SetID] = true
	}
	if len(sets) != w.sets {
		return fmt.Errorf("%d queries landed on %d state sets, want %d", len(w.sqls), len(sets), w.sets)
	}
	return nil
}

// feed applies n events from next in batches.
func feed(cat *catalog.Service, n int, next func() ev) error {
	batch := make([]engine.Event, 0, applyBatch)
	for i := 0; i < n; i++ {
		batch = append(batch, next().event())
		if len(batch) == applyBatch || i == n-1 {
			if err := cat.ApplyBatch(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return nil
}

// buildWarm writes the seeded warm data directory: the base prefix behind a
// checkpoint, then the tail in the WAL only, so a boot has both a snapshot
// load and a WAL replay to do. It returns the generator positioned after the
// warm prefix and the catalog's results at that point (the reference every
// boot must reproduce).
func buildWarm(dir string, w workload, seed int64) (*gen, results, error) {
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	g := newGen(seed)
	ref, err := func() (results, error) {
		if err := registerAll(cat, w); err != nil {
			return nil, err
		}
		if err := feed(cat, w.warmBase, g.next); err != nil {
			return nil, err
		}
		if err := cat.Checkpoint(); err != nil {
			return nil, err
		}
		if err := feed(cat, w.warmTail, g.next); err != nil {
			return nil, err
		}
		return catalogResults(cat)
	}()
	if cerr := cat.Close(); err == nil {
		err = cerr
	}
	return g, ref, err
}

// copyDir copies a data directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		t := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(t, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(t)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
