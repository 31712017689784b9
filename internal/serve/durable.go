package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"

	"rpai/internal/checkpoint"
)

// This file is the snapshot side of a Service: Checkpoint fans a snapshot
// request out to every shard worker and writes a standalone checkpoint
// directory (one snapshot file per shard plus a MANIFEST), and
// LoadCheckpoint swaps a checkpoint's partitions into a running service. A
// service keeps no log of its own — the catalog's shared WAL is the only
// one — so a checkpoint is snapshots only. All shard-state access happens on
// the owning worker goroutine via control requests, so none of this code
// takes locks on partition state.

// checkpointGen is the generation every exported checkpoint is written
// under: an export is a standalone directory, never rotated in place.
const checkpointGen = 1

// snapshotShard writes one shard's partitions to dir. It runs on the shard's
// worker goroutine via a control request, so it owns ws exclusively.
func (s *Service[E]) snapshotShard(ws *workerState[E], dir string) error {
	keys := make([]string, 0, len(ws.parts))
	for k := range ws.parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]checkpoint.Partition, 0, len(keys))
	var buf bytes.Buffer
	for _, k := range keys {
		p := ws.parts[k]
		buf.Reset()
		if err := s.cfg.Durable.Snapshot(&buf, p.vals, p.ex); err != nil {
			return fmt.Errorf("serve: snapshotting partition %v: %w", p.vals, err)
		}
		parts = append(parts, checkpoint.Partition{Key: p.vals, State: append([]byte(nil), buf.Bytes()...)})
	}
	h := checkpoint.Header{Gen: checkpointGen, Shard: uint32(ws.idx), ShardCount: uint32(len(s.shards))}
	return checkpoint.WriteSnapshotFile(checkpoint.SnapPath(dir, checkpointGen, ws.idx), h, parts)
}

// Checkpoint writes a consistent snapshot of every shard to dir: one
// snapshot file per shard, then the MANIFEST, so a directory with a MANIFEST
// always holds a complete checkpoint. LoadCheckpoint (or Restore) reads it
// back, under any shard count.
//
// Each shard snapshots between batches, so the checkpoint captures a
// point-in-time state per partition; callers that need one cut across all
// shards stop ingest and Drain first. Checkpoint returns ErrClosed after
// Close.
func (s *Service[E]) Checkpoint(dir string) error {
	if s.cfg.Durable == nil || s.cfg.Durable.Snapshot == nil {
		return errors.New("serve: Checkpoint requires Config.Durable.Snapshot")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range s.shards {
		if err := s.control(i, func(ws *workerState[E]) error { return s.snapshotShard(ws, dir) }); err != nil {
			return err
		}
	}
	return checkpoint.WriteManifest(dir, checkpoint.Manifest{Gen: checkpointGen, Shards: uint32(len(s.shards))})
}

// control runs fn on shard i's worker goroutine and returns its error.
func (s *Service[E]) control(i int, fn func(ws *workerState[E]) error) error {
	done := make(chan error, 1)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	s.shards[i].in <- item[E]{ctl: &ctl[E]{fn: fn, done: done}}
	s.mu.RUnlock()
	return <-done
}

// readCheckpoint loads every partition of the checkpoint in dir, restoring
// each executor through d.Restore. Nothing is installed: a damaged or
// incomplete checkpoint fails here, before any shard state is touched.
func readCheckpoint[E any](dir string, d *Durable[E]) ([]*partition[E], error) {
	m, err := checkpoint.ReadManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("serve: %s is not a checkpoint directory", dir)
	}
	if err != nil {
		return nil, err
	}
	var out []*partition[E]
	seen := make(map[string]bool)
	for i := 0; i < int(m.Shards); i++ {
		h, parts, err := checkpoint.ReadSnapshotFile(checkpoint.SnapPath(dir, m.Gen, i))
		if err != nil {
			return nil, fmt.Errorf("serve: checkpoint %s shard %d: %w", dir, i, err)
		}
		if h.Gen != m.Gen || int(h.Shard) != i || h.ShardCount != m.Shards {
			return nil, fmt.Errorf("serve: checkpoint %s shard %d: header says gen %d shard %d of %d, manifest gen %d of %d",
				dir, i, h.Gen, h.Shard, h.ShardCount, m.Gen, m.Shards)
		}
		for _, p := range parts {
			ex, err := d.Restore(bytes.NewReader(p.State), p.Key)
			if err != nil {
				return nil, fmt.Errorf("serve: checkpoint %s partition %v: %w", dir, p.Key, err)
			}
			// Normalize restored keys so they rehash onto the same shard as
			// live events carrying the same key.
			np := newPartition(normalizeVals(append([]float64(nil), p.Key...)), ex)
			np.ekey = string(encodeKey(nil, np.vals))
			if seen[np.ekey] {
				return nil, fmt.Errorf("serve: duplicate partition %v in checkpoint %s", np.vals, dir)
			}
			seen[np.ekey] = true
			np.last = ex.Result()
			out = append(out, np)
		}
	}
	return out, nil
}

// LoadCheckpoint replaces the service's entire state with the checkpoint in
// dir, rehashing its partitions onto this service's shards (the shard count
// need not match the one the checkpoint was written under). Events queued
// before the call are applied first and then discarded with the state they
// built. Every shard's next publication is a Full frame, because the
// previous published state is not a delta base for the loaded one; the call
// returns after that publication, so reads and subscribers see the loaded
// state when it returns.
func (s *Service[E]) LoadCheckpoint(dir string) error {
	d := s.cfg.Durable
	if d == nil || d.Restore == nil {
		return errors.New("serve: LoadCheckpoint requires Config.Durable.Restore")
	}
	parts, err := readCheckpoint(dir, d)
	if err != nil {
		return err
	}
	installs := make([][]*partition[E], len(s.shards))
	for _, p := range parts {
		t := int(hashVals(p.vals) % uint64(len(s.shards)))
		installs[t] = append(installs[t], p)
	}
	for i, list := range installs {
		list := list
		if err := s.control(i, func(ws *workerState[E]) error {
			ws.resetParts(list)
			s.shards[ws.idx].partitions.Store(int64(len(ws.parts)))
			ws.publishFull = true
			return nil
		}); err != nil {
			return err
		}
	}
	return s.Drain()
}

// Restore builds a service from cfg and loads the checkpoint in dir into it.
func Restore[E any](dir string, cfg Config[E]) (*Service[E], error) {
	svc, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := svc.LoadCheckpoint(dir); err != nil {
		svc.Close()
		return nil, err
	}
	return svc, nil
}
