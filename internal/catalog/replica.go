package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rpai/internal/checkpoint"
	"rpai/internal/engine"
)

// A replica is a read-only catalog that follows a durable primary's
// directory. It never writes there. It boots exactly like Recover — the
// CATALOG manifest names every registration and state set, and each set
// restores from its fork or rotation snapshot as of its `since` record —
// and then, instead of replaying the shared WAL once, keeps tailing it,
// fanning each record out to every set with since <= the record index, the
// same fan-out Recover's replay performs.
//
// The manifest is the replica's control channel. A change within one
// generation is a runtime Register or Unregister on the primary: the
// replica rebuilds its tables from the new manifest, keeps the sets it
// already serves (their state is current through the records it applied),
// opens the new ones and replays the WAL records they missed. A new
// generation is a primary Checkpoint (or a primary restart, which rotates
// too): the old WAL is gone, so every kept set reloads its state in place
// from the new generation's snapshots — subscriptions stay attached and
// receive Full frames — and tailing restarts at record 0 of the new WAL.

// ReplicaPollDefault is the interval at which a replica polls the manifest
// and the WAL tail when OpenReplica is passed 0.
const ReplicaPollDefault = 5 * time.Millisecond

// replica is a replica catalog's follower state. Everything but err is
// owned by the follower goroutine.
type replica struct {
	dir      string
	poll     time.Duration
	manifest []byte // the CATALOG bytes last adopted
	// gen is the generation whose WAL the follower tails; 0 while a
	// rebase onto a new generation is incomplete, which stops tailing.
	gen   uint64
	tail  *checkpoint.WALTail
	dec   engine.EventDecoder
	batch []engine.Event

	errMu sync.Mutex
	err   error // sticky follow error (WAL corruption, unreadable format)

	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// OpenReplica boots a read-only catalog following the durable catalog in
// opt.Dir, polling it every poll (0 selects ReplicaPollDefault). opt.Shards
// and the other serving options are the replica's own; they need not match
// the primary's. Reads, Explain, Stats and subscriptions work as on the
// primary; every write returns ErrReadOnly.
func OpenReplica(opt Options, poll time.Duration) (*Service, error) {
	if opt.Dir == "" {
		return nil, errors.New("catalog: OpenReplica requires Options.Dir")
	}
	if poll <= 0 {
		poll = ReplicaPollDefault
	}
	path := filepath.Join(opt.Dir, catalogName)
	// A primary rotating while the replica boots can delete the snapshots
	// the boot manifest names; boot again from the newer manifest.
	for attempt := 0; ; attempt++ {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("catalog: %s is not a catalog directory: %w", opt.Dir, err)
		}
		m, err := decodeCatalog(opt.Dir, b)
		if err != nil {
			return nil, err
		}
		s, err := fromManifest(opt, m)
		if err != nil {
			if now, rerr := os.ReadFile(path); rerr == nil && !bytes.Equal(now, b) && attempt < 10 {
				continue
			}
			return nil, err
		}
		s.applied = m.appliedBase
		s.rep = &replica{dir: opt.Dir, poll: poll, manifest: b, gen: m.gen,
			quit: make(chan struct{}), done: make(chan struct{})}
		go s.follow()
		return s, nil
	}
}

// stop ends the follower and returns its sticky error.
func (r *replica) stop() error {
	r.stopOnce.Do(func() { close(r.quit) })
	<-r.done
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// follow is the follower loop: each poll adopts a changed manifest, then
// applies every complete WAL record past the cursor. An unrecoverable error
// stops following; the replica keeps serving its last state and Close
// reports the error.
func (s *Service) follow() {
	r := s.rep
	defer close(r.done)
	defer func() {
		if r.tail != nil {
			r.tail.Close()
		}
	}()
	tick := time.NewTicker(r.poll)
	defer tick.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-tick.C:
		}
		if err := s.followStep(); err != nil {
			r.errMu.Lock()
			r.err = err
			r.errMu.Unlock()
			return
		}
	}
}

// followStep advances the replica by one poll. Transient states — a
// manifest naming snapshots a newer rotation already removed, a WAL not yet
// created, a torn tail — return nil and are retried next poll.
func (s *Service) followStep() error {
	r := s.rep
	if b, err := os.ReadFile(filepath.Join(r.dir, catalogName)); err == nil && !bytes.Equal(b, r.manifest) {
		m, err := decodeCatalog(r.dir, b)
		var verr *ManifestVersionError
		if errors.As(err, &verr) {
			return err
		}
		// The manifest is replaced by rename, so a decode failure is a
		// concurrent rewrite; adopt failures are mid-rotation races.
		if err != nil || s.adopt(m) != nil {
			return nil
		}
		r.manifest = b
	}
	if r.gen == 0 {
		return nil
	}
	if r.tail == nil {
		t, err := checkpoint.OpenWALTail(walPath(r.dir, r.gen))
		if err != nil {
			return nil // not created yet, or rotated away: the manifest decides
		}
		r.tail = t
	}
	for {
		rec, err := r.tail.Next()
		switch {
		case err == nil:
			if err := s.applyTailRecord(rec); err != nil {
				return fmt.Errorf("catalog: replica WAL record %d: %w", s.records, err)
			}
			continue
		case errors.Is(err, checkpoint.ErrNoRecord):
			return nil // torn or quiet tail
		case errors.Is(err, checkpoint.ErrTailRotated):
			// Catalog WALs are never recreated in place; a new generation
			// arrives under a new name with a new manifest.
			return fmt.Errorf("catalog: replica: WAL generation %d was recreated in place", r.gen)
		default:
			return fmt.Errorf("catalog: replica WAL: %w", err)
		}
	}
}

// adopt rebuilds the replica's tables from manifest m (see loadManifest).
// Within the tailed generation, sets the replica opens for the first time
// replay the records it already applied to the others; a new generation
// reloads every kept set and restarts tailing at record 0. On error the
// tables are unchanged and the caller retries with the same manifest.
func (s *Service) adopt(m manifest) error {
	r := s.rep
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	reload := m.gen != r.gen
	if reload {
		// Kept sets are about to hold the new generation's state: no record
		// of the old WAL may reach them from here on.
		if r.tail != nil {
			r.tail.Close()
			r.tail = nil
		}
		r.gen = 0
	}
	live := make(map[uint64]*execSet)
	for _, set := range s.distinctSetsLocked() {
		live[set.setID] = set
	}
	replayTo := s.records
	if reload {
		replayTo = 0
	}
	t, err := s.loadManifest(m, live, reload, replayTo)
	if err != nil {
		return err
	}
	prev := s.distinctSetsLocked()
	s.tables = t
	kept := make(map[*execSet]bool)
	for _, set := range s.distinctSetsLocked() {
		kept[set] = true
	}
	for _, set := range prev {
		if !kept[set] {
			set.svc.Close() // its last member was unregistered
		}
	}
	s.nextID, s.nextSet = QueryID(m.nextID), m.nextSet
	if reload {
		r.gen, s.records, s.applied = m.gen, 0, m.appliedBase
	}
	return s.installAllLanesLocked()
}

// applyTailRecord fans one tailed WAL record out to the replica's sets.
func (s *Service) applyTailRecord(rec []byte) error {
	r := s.rep
	r.batch = r.batch[:0]
	if err := decodeBatchRecord(rec, &r.dec, func(e engine.Event) error {
		r.batch = append(r.batch, e)
		return nil
	}); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if err := fanOutRecord(s.distinctSetsLocked(), s.records, r.batch); err != nil {
		return err
	}
	s.records++
	s.applied++
	return nil
}
