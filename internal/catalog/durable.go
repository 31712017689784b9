package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"rpai/internal/checkpoint"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
	"rpai/internal/sqlparse"
)

// On-disk layout of a durable catalog directory (generation G):
//
//	CATALOG                 registration manifest (tmp+rename, CRC record)
//	g<G>-shard-0.wal        the shared ingest WAL: ONE record per applied batch
//	g<G>/s<setID>/          one standalone serve checkpoint per executor set
//	g<G>/s<setID>-f<R>/     a fork snapshot of the set, taken at WAL record R
//
// The CATALOG manifest maps every registered QueryID to its SQL, its
// executor-set ID, its probe plan, and `since` — the WAL record index the
// set's snapshot state is current through. Recovery re-registers everything
// from the manifest, restores each set from its snapshot directory, then
// replays the shared WAL: record i goes to every set with since <= i, which
// is exactly the fan-out the live catalog performed. A set registered after
// the last checkpoint has no snapshot directory and recovers from its WAL
// suffix alone.
//
// Fork snapshots are how a late joiner attaches durably: the set's live
// state is checkpointed under g<G>/s<setID>-f<R> (R = the record count at
// the join), and the manifest swap that commits the new member also advances
// the set's since to R — so recovery restores the joined set from the fork
// instead of replaying the family's earlier records. The record index in the
// directory name makes the fork inert until a manifest references it: a
// crash between the fork and the manifest swap recovers through the old
// manifest, which points at the old state, and the orphaned fork directory
// is swept with its generation at the next rotation.
//
// Checkpoint rotates generations in the crash-safe order the single-query
// layer established: drain and snapshot every set under g<G+1>/ (cloning a
// set's current fork snapshot with checkpoint.Fork instead of
// re-serializing, when one is current), create the g<G+1> WAL, swap the
// CATALOG manifest (the commit point), then delete generation G. A crash
// anywhere before the swap recovers from G; after it, from G+1.

const (
	// catalogName is the manifest file.
	catalogName = "CATALOG"
	// catalogMagic brands the manifest; catalogVersion the record format,
	// the only one this build reads or writes. Version 3 records each
	// entry's full probe plan (aggregate kind, threshold constant, residual
	// conjunct), the set's founding SQL and founding record index, and the
	// catalog's lifetime batch counter.
	catalogMagic   = "RPCG"
	catalogVersion = 3
	// entryShared marks an entry whose query reads a probe lane of a shared
	// state set; its plan fields (constant, kind, residual) are meaningful.
	entryShared = 1 << 0
	// entryResidual marks an entry whose probe plan carries a residual
	// partition-column conjunct.
	entryResidual = 1 << 1
	// maxManifestQueries bounds decode allocation for corrupt files.
	maxManifestQueries = 1 << 20
)

// ErrNotDurable is returned by Checkpoint on a catalog built without
// Options.Dir: there is no directory to rotate into.
var ErrNotDurable = errors.New("catalog: Checkpoint requires Options.Dir")

// ManifestVersionError reports a CATALOG manifest written in a format
// version this build does not read. Older formats (versions 1 and 2) are
// refused rather than upgraded: recover such a directory with the build that
// wrote it and Checkpoint it there, or re-register its queries.
type ManifestVersionError struct {
	Dir     string
	Version uint32
}

func (e *ManifestVersionError) Error() string {
	return fmt.Sprintf("catalog: %s holds a version-%d CATALOG manifest; this build reads version %d only",
		e.Dir, e.Version, catalogVersion)
}

// durableState is the catalog's persistence handle.
type durableState struct {
	dir string
	gen uint64
	wal *checkpoint.WALWriter
}

// catEntry is one manifest line: the registration (id, sql), its set (setID,
// since, baseSQL, founded) and its probe plan (shared, spec).
type catEntry struct {
	id      QueryID
	setID   uint64
	since   uint64
	sql     string
	baseSQL string
	founded uint64
	shared  bool
	spec    engine.ProbeSpec
}

// manifest is a decoded CATALOG file.
type manifest struct {
	gen, nextID, nextSet uint64
	// appliedBase is the catalog's lifetime batch count before this
	// generation's WAL: the founding epoch of record 0.
	appliedBase uint64
	partitionBy []string
	entries     []catEntry
}

func walPath(dir string, gen uint64) string { return checkpoint.WALPath(dir, gen, 0) }

func setDir(dir string, gen, setID uint64) string {
	return filepath.Join(dir, fmt.Sprintf("g%d", gen), fmt.Sprintf("s%d", setID))
}

// forkDir names a set's fork snapshot taken at WAL record index rec. The
// index in the name keys the snapshot to the manifest state that references
// it, so a stale or orphaned fork can never be confused for the set's
// rotation snapshot.
func forkDir(dir string, gen, setID, rec uint64) string {
	return filepath.Join(dir, fmt.Sprintf("g%d", gen), fmt.Sprintf("s%d-f%d", setID, rec))
}

// initDurable creates a fresh durable catalog directory: generation-1 WAL
// plus an empty manifest. An existing manifest is rejected — recovering an
// existing directory is Recover's job, and silently truncating its WAL here
// would destroy it.
func (s *Service) initDurable() error {
	dir := s.opt.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, catalogName)); err == nil {
		return fmt.Errorf("catalog: %s already has a CATALOG manifest; use Recover", dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	const gen = 1
	wal, err := checkpoint.CreateWAL(walPath(dir, gen), checkpoint.Header{Gen: gen, Shard: 0, ShardCount: 1})
	if err != nil {
		return err
	}
	s.dur = &durableState{dir: dir, gen: gen, wal: wal}
	if err := s.writeManifestLocked(); err != nil {
		wal.Close()
		s.dur = nil
		return err
	}
	return nil
}

// appendWAL logs one batch as one record and flushes it to the OS. Callers
// hold ingestMu, so record order is application order.
func (s *Service) appendWAL(events []engine.Event) error {
	rec := encodeBatchRecord(nil, events)
	if err := s.dur.wal.Append(rec); err != nil {
		return err
	}
	return s.dur.wal.Flush()
}

// forkSetLocked checkpoints a set's live state as a fork snapshot at the
// current WAL record index, recording it in snapDir/snapAt. A snapshot
// already current (a previous joiner forked at this index, or the set just
// rotated and nothing arrived since) is reused as-is; a leftover directory
// from a failed attempt is replaced. Callers hold mu for write and commit
// the fork by writing a manifest whose since points at it.
func (s *Service) forkSetLocked(set *execSet) error {
	if set.snapDir != "" && set.snapAt == s.records {
		return nil
	}
	dst := forkDir(s.dur.dir, s.dur.gen, set.setID, s.records)
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := set.svc.Drain(); err != nil {
		return err
	}
	if err := set.svc.Checkpoint(dst); err != nil {
		return err
	}
	set.snapDir, set.snapAt = dst, s.records
	return nil
}

// manifestEntriesLocked snapshots the registration table for persisting.
// Callers hold mu.
func (s *Service) manifestEntriesLocked() []catEntry {
	entries := make([]catEntry, 0, len(s.regs))
	for _, reg := range s.regs {
		entries = append(entries, catEntry{
			id: reg.id, setID: reg.set.setID, since: reg.set.since, sql: reg.sql,
			baseSQL: reg.set.baseSQL, founded: reg.set.founded,
			shared: reg.shared, spec: reg.spec,
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	return entries
}

// writeManifestLocked persists the current registration table. Callers hold
// mu for write. appliedBase — the lifetime batch count before the current
// generation's WAL — is constant between rotations, so any manifest write
// within a generation records the same value.
func (s *Service) writeManifestLocked() error {
	return writeCatalogFile(s.dur.dir, manifest{gen: s.dur.gen, nextID: uint64(s.nextID), nextSet: s.nextSet,
		appliedBase: s.applied - s.records, partitionBy: s.opt.PartitionBy, entries: s.manifestEntriesLocked()})
}

// writeCatalogFile writes the CATALOG manifest: magic, then one CRC-framed
// record, installed by tmp+rename+sync so readers see the old manifest or
// the new one, never a torn mix.
func writeCatalogFile(dir string, m manifest) error {
	var rec bytes.Buffer
	e := checkpoint.NewEncoder(&rec)
	e.U32(catalogVersion)
	e.U64(m.gen)
	e.U64(m.nextID)
	e.U64(m.nextSet)
	e.U64(m.appliedBase)
	e.U32(uint32(len(m.partitionBy)))
	for _, c := range m.partitionBy {
		e.Str(c)
	}
	e.U32(uint32(len(m.entries)))
	for _, ent := range m.entries {
		e.U64(uint64(ent.id))
		e.U64(ent.setID)
		e.U64(ent.since)
		e.Str(ent.sql)
		var flags uint8
		if ent.shared {
			flags |= entryShared
		}
		if ent.spec.Residual {
			flags |= entryResidual
		}
		e.U8(flags)
		e.F64(ent.spec.Const)
		e.Str(ent.baseSQL)
		e.U8(uint8(ent.spec.Kind))
		e.Str(ent.spec.ResidualCol)
		e.U8(uint8(ent.spec.ResidualOp))
		e.F64(ent.spec.ResidualVal)
		e.U64(ent.founded)
	}
	if err := e.Err(); err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteString(catalogMagic)
	if err := checkpoint.WriteRecord(&buf, rec.Bytes()); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, catalogName+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, catalogName)); err != nil {
		return err
	}
	return catalogSyncDir(dir)
}

// readCatalogFile loads and validates the CATALOG manifest.
func readCatalogFile(dir string) (manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, catalogName))
	if err != nil {
		return manifest{}, err
	}
	return decodeCatalog(dir, b)
}

// decodeCatalog parses a CATALOG file's bytes; dir only labels errors.
func decodeCatalog(dir string, b []byte) (manifest, error) {
	var m manifest
	if len(b) < len(catalogMagic) || string(b[:len(catalogMagic)]) != catalogMagic {
		return m, fmt.Errorf("catalog: bad CATALOG magic in %s", dir)
	}
	rec, err := checkpoint.ReadRecord(bytes.NewReader(b[len(catalogMagic):]))
	if err != nil {
		return m, fmt.Errorf("catalog: CATALOG manifest: %w", err)
	}
	d := checkpoint.NewDecoder(bytes.NewReader(rec))
	if v := d.U32(); d.Err() == nil && v != catalogVersion {
		return m, &ManifestVersionError{Dir: dir, Version: v}
	}
	m.gen = d.U64()
	m.nextID = d.U64()
	m.nextSet = d.U64()
	m.appliedBase = d.U64()
	np := d.U32()
	if d.Err() == nil && np > maxManifestQueries {
		return m, fmt.Errorf("catalog: implausible partition-column count %d", np)
	}
	for i := uint32(0); i < np && d.Err() == nil; i++ {
		m.partitionBy = append(m.partitionBy, d.Str())
	}
	nq := d.U32()
	if d.Err() == nil && nq > maxManifestQueries {
		return m, fmt.Errorf("catalog: implausible query count %d", nq)
	}
	for i := uint32(0); i < nq && d.Err() == nil; i++ {
		ent := catEntry{
			id:    QueryID(d.U64()),
			setID: d.U64(),
			since: d.U64(),
			sql:   d.Str(),
		}
		flags := d.U8()
		ent.spec.Const = d.F64()
		ent.baseSQL = d.Str()
		ent.spec.Kind = query.AggKind(d.U8())
		ent.spec.ResidualCol = d.Str()
		ent.spec.ResidualOp = query.CmpOp(d.U8())
		ent.spec.ResidualVal = d.F64()
		ent.founded = d.U64()
		ent.shared = flags&entryShared != 0
		ent.spec.Residual = flags&entryResidual != 0
		if !ent.spec.Residual {
			ent.spec.ResidualCol, ent.spec.ResidualOp, ent.spec.ResidualVal = "", 0, 0
		}
		m.entries = append(m.entries, ent)
	}
	if err := d.Err(); err != nil {
		return m, fmt.Errorf("catalog: CATALOG manifest: %w", err)
	}
	return m, nil
}

func catalogSyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Checkpoint rotates the catalog to a new generation: every executor set is
// drained and snapshotted, a fresh WAL starts, and the manifest swap commits
// the rotation (the old generation is removed afterwards). Replay cost after
// a crash resets to zero.
func (s *Service) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.rep != nil {
		return ErrReadOnly
	}
	if s.dur == nil {
		return ErrNotDurable
	}
	return s.rotateLocked()
}

// rotateLocked performs the generation rotation. Callers hold mu for write
// (so no ingest or registration is in flight). The recovery path calls it
// with no WAL writer open (s.dur.wal nil). A set whose newest snapshot —
// typically a late joiner's fork — already reflects every WAL record is
// carried forward by cloning that snapshot (checkpoint.Fork) instead of
// re-serializing the live executors.
func (s *Service) rotateLocked() error {
	dir, oldGen := s.dur.dir, s.dur.gen
	newGen := oldGen + 1
	// A failed earlier rotation may have left a partial next generation;
	// nothing references it (its manifest swap never happened), so clear it.
	if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("g%d", newGen))); err != nil {
		return err
	}
	sets := s.distinctSetsLocked()
	for _, set := range sets {
		if err := set.svc.Drain(); err != nil {
			return err
		}
		dst := setDir(dir, newGen, set.setID)
		if set.snapDir != "" && set.snapAt == s.records && set.since == s.records {
			if err := checkpoint.Fork(set.snapDir, dst); err != nil {
				return err
			}
		} else if err := set.svc.Checkpoint(dst); err != nil {
			return err
		}
	}
	newWAL, err := checkpoint.CreateWAL(walPath(dir, newGen), checkpoint.Header{Gen: newGen, Shard: 0, ShardCount: 1})
	if err != nil {
		return err
	}
	// The manifest swap is the commit point: all sets are current through the
	// (empty) new WAL, so every since is 0, and the lifetime batch counter
	// folds the rotated-away records into appliedBase.
	entries := s.manifestEntriesLocked()
	for i := range entries {
		entries[i].since = 0
	}
	if err := writeCatalogFile(dir, manifest{gen: newGen, nextID: uint64(s.nextID), nextSet: s.nextSet,
		appliedBase: s.applied, partitionBy: s.opt.PartitionBy, entries: entries}); err != nil {
		newWAL.Close()
		os.Remove(walPath(dir, newGen))
		os.RemoveAll(filepath.Join(dir, fmt.Sprintf("g%d", newGen)))
		return err
	}
	if s.dur.wal != nil {
		s.dur.wal.Close()
	}
	s.dur.wal = newWAL
	s.dur.gen = newGen
	s.records = 0
	for _, set := range sets {
		set.since = 0
		set.snapDir = setDir(dir, newGen, set.setID)
		set.snapAt = 0
	}
	os.Remove(walPath(dir, oldGen))
	os.RemoveAll(filepath.Join(dir, fmt.Sprintf("g%d", oldGen)))
	return nil
}

// Recover rebuilds a durable catalog from its directory: registrations come
// back from the CATALOG manifest, each executor set restores from its
// snapshot (a fork snapshot at the set's since when one exists, else the
// rotation snapshot), and the shared WAL replays into every set that had not
// yet seen its records. Recovery ends with a generation rotation, so the
// next crash replays only what follows. opt.Dir names the directory;
// opt.PartitionBy, when set, must match the persisted columns. A manifest in
// an older format is refused with a *ManifestVersionError before anything
// in the directory is touched.
func Recover(opt Options) (*Service, error) {
	if opt.Dir == "" {
		return nil, errors.New("catalog: Recover requires Options.Dir")
	}
	m, err := readCatalogFile(opt.Dir)
	if err != nil {
		return nil, err
	}
	s, err := fromManifest(opt, m)
	if err != nil {
		return nil, err
	}
	idx, err := replayWAL(walPath(opt.Dir, m.gen), s.distinctSetsLocked(), math.MaxUint64)
	if err != nil {
		s.closeSets()
		return nil, fmt.Errorf("catalog: WAL replay: %w", err)
	}
	s.records = idx
	s.applied = m.appliedBase + idx

	// Rotate to a fresh generation so the replayed WAL is compacted away.
	// CreateWAL truncates, so the old WAL must never be reopened for append.
	s.dur = &durableState{dir: opt.Dir, gen: m.gen}
	if err := s.rotateLocked(); err != nil {
		s.closeSets()
		return nil, err
	}
	return s, nil
}

// fromManifest builds a catalog holding m's registrations, every state set
// restored to its on-disk state as of WAL record since. Recover and
// OpenReplica both start here.
func fromManifest(opt Options, m manifest) (*Service, error) {
	if len(opt.PartitionBy) > 0 && !slices.Equal(opt.PartitionBy, m.partitionBy) {
		return nil, fmt.Errorf("catalog: partition columns %v do not match persisted %v", opt.PartitionBy, m.partitionBy)
	}
	opt.PartitionBy = m.partitionBy
	s := newService(opt)
	s.nextID = max(QueryID(m.nextID), 1)
	s.nextSet = max(m.nextSet, 1)
	t, err := s.loadManifest(m, nil, false, 0)
	if err != nil {
		return nil, err
	}
	s.tables = t
	if err := s.installAllLanesLocked(); err != nil {
		s.closeSets()
		return nil, err
	}
	return s, nil
}

// loadManifest builds the registration tables for manifest m without
// touching s's own tables. A state set found in live (by set ID) is kept:
// its members and lanes are recomputed, and with reload set (m is a newer
// generation than live was loaded under) its state is reloaded in place from
// m's snapshots, so subscriptions stay attached. Every other set is opened
// from disk by openSet and then fed WAL records [since, replayTo) — the
// records a replica already applied to the sets it kept. On error the
// opened sets are closed, but a kept set may already hold m's state —
// callers retry with the same m.
func (s *Service) loadManifest(m manifest, live map[uint64]*execSet, reload bool, replayTo uint64) (tables, error) {
	bySet := make(map[uint64][]catEntry)
	var setIDs []uint64
	for _, ent := range m.entries {
		if _, ok := bySet[ent.setID]; !ok {
			setIDs = append(setIDs, ent.setID)
		}
		bySet[ent.setID] = append(bySet[ent.setID], ent)
	}
	slices.Sort(setIDs)
	var opened []*execSet
	fail := func(err error) (tables, error) {
		for _, set := range opened {
			set.svc.Close()
		}
		return tables{}, err
	}

	// Parse everything and bring every set's state into place first; the
	// tables are assembled only once nothing can fail.
	type member struct {
		ent   catEntry
		q     *query.Query
		plan  engine.Plan
		canon string
	}
	members := make(map[uint64][]member, len(setIDs))
	sets := make(map[uint64]*execSet, len(setIDs))
	for _, sid := range setIDs {
		ents := bySet[sid]
		for _, ent := range ents {
			q, err := sqlparse.Parse(ent.sql)
			if err != nil {
				return fail(fmt.Errorf("catalog: manifest query %d: %w", ent.id, err))
			}
			plan, err := engine.Describe(q)
			if err != nil {
				return fail(fmt.Errorf("catalog: manifest query %d: %w", ent.id, err))
			}
			members[sid] = append(members[sid], member{ent: ent, q: q, plan: plan, canon: q.String()})
		}
		set := live[sid]
		switch {
		case set == nil:
			var err error
			if set, err = s.openSet(m, ents[0]); err != nil {
				return fail(fmt.Errorf("catalog: recover set %d: %w", sid, err))
			}
			opened = append(opened, set)
			if set.since < replayTo {
				n, err := replayWAL(walPath(s.opt.Dir, m.gen), []*execSet{set}, replayTo)
				if err == nil && n != replayTo {
					err = fmt.Errorf("WAL holds %d of %d records", n, replayTo)
				}
				if err != nil {
					return fail(fmt.Errorf("catalog: catch up set %d: %w", sid, err))
				}
			}
		case reload:
			snap, err := s.snapshotOf(m.gen, sid, ents[0].since)
			if err == nil && snap == "" {
				err = fmt.Errorf("no snapshot in generation %d", m.gen)
			}
			if err == nil {
				err = set.svc.LoadCheckpoint(snap)
			}
			if err != nil {
				return fail(fmt.Errorf("catalog: reload set %d: %w", sid, err))
			}
			set.since, set.snapDir, set.snapAt = ents[0].since, snap, ents[0].since
		}
		sets[sid] = set
	}

	t := newTables()
	for _, sid := range setIDs {
		set := sets[sid]
		set.refs = make(map[QueryID]struct{})
		if set.lanes != nil {
			set.lanes = make(map[engine.ProbeSpec]int)
		}
		for _, mb := range members[sid] {
			shared := mb.ent.shared && set.lanes != nil
			if shared {
				set.lanes[mb.ent.spec]++
			}
			set.refs[mb.ent.id] = struct{}{}
			t.regs[mb.ent.id] = &registration{id: mb.ent.id, sql: mb.ent.sql, set: set,
				plan: mb.plan, canon: mb.canon, shared: shared, spec: mb.ent.spec}
			// Newest set per canonical form wins the join table (higher
			// setID == created later); every member registers its own form.
			if prev, ok := t.sets[mb.canon]; !ok || prev.setID < sid {
				t.sets[mb.canon] = set
			}
		}
		if set.lanes != nil {
			if prev, ok := t.states[set.stateKey]; !ok || prev.setID < sid {
				t.states[set.stateKey] = set
			}
			if set.baseKey != "" {
				if prev, ok := t.baseKeys[set.baseKey]; !ok || prev.setID < sid {
					t.baseKeys[set.baseKey] = set
				}
			}
		}
	}
	return t, nil
}

// openSet builds the state set a manifest entry's set ID names, restored to
// its state as of WAL record ent.since of m's generation.
func (s *Service) openSet(m manifest, ent catEntry) (*execSet, error) {
	bq, err := sqlparse.Parse(ent.baseSQL)
	if err != nil {
		return nil, fmt.Errorf("founding query: %w", err)
	}
	exec, stateKey, baseKey, baseSpec, shared := deriveState(bq, m.partitionBy)
	snap, err := s.snapshotOf(m.gen, ent.setID, ent.since)
	if err != nil {
		return nil, err
	}
	var svc *serve.Service[engine.Event]
	if snap != "" {
		svc, err = serve.RestoreForQuery(snap, exec, m.partitionBy, s.serveOptions())
	} else {
		// Founded after the generation's rotation: its state lives in the
		// WAL suffix alone.
		svc, err = serve.ForQuery(exec, m.partitionBy, s.serveOptions())
	}
	if err != nil {
		return nil, err
	}
	set := &execSet{setID: ent.setID, canon: bq.String(), baseSQL: ent.baseSQL, q: exec,
		stateKey: stateKey, baseKey: baseKey, svc: svc,
		since: ent.since, founded: ent.founded, snapDir: snap}
	if snap != "" {
		set.snapAt = ent.since
	}
	if shared {
		set.lanes = make(map[engine.ProbeSpec]int)
		set.baseSpec = baseSpec
		set.baseSpec.Kind = exec.Outer
	}
	return set, nil
}

// snapshotOf locates a set's newest committed snapshot in generation gen: the
// fork a late joiner took at record since, else the rotation snapshot. It
// returns "" when the set has neither (founded after the rotation).
func (s *Service) snapshotOf(gen, setID, since uint64) (string, error) {
	for _, dir := range []string{forkDir(s.opt.Dir, gen, setID, since), setDir(s.opt.Dir, gen, setID)} {
		if _, err := os.Stat(dir); err == nil {
			return dir, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return "", err
		}
	}
	return "", nil
}

// installAllLanesLocked reinstalls every shared set's probe lanes from its
// members' plans (a no-op while every member reads the base result).
// Callers hold mu for write.
func (s *Service) installAllLanesLocked() error {
	for _, set := range s.distinctSetsLocked() {
		if set.lanes == nil {
			continue
		}
		if err := s.installLanesLocked(set); err != nil {
			return fmt.Errorf("catalog: set %d lanes: %w", set.setID, err)
		}
	}
	return nil
}

// fanOutRecord applies WAL record idx to every set whose state does not
// already include it (since <= idx) — exactly the fan-out ApplyBatch
// performed when the record was written.
func fanOutRecord(sets []*execSet, idx uint64, batch []engine.Event) error {
	for _, set := range sets {
		if set.since <= idx {
			if err := set.svc.ApplyBatch(batch); err != nil {
				return err
			}
		}
	}
	return nil
}

// errStopReplay ends replayWAL's read at its stop index.
var errStopReplay = errors.New("catalog: replay stop")

// replayWAL reads records [0, stop) of the WAL at path, fanning each out to
// sets, and returns the number of records read. A torn tail ends the log.
func replayWAL(path string, sets []*execSet, stop uint64) (uint64, error) {
	var dec engine.EventDecoder
	var batch []engine.Event
	idx := uint64(0)
	_, _, err := checkpoint.ReadWAL(path, func(rec []byte) error {
		if idx >= stop {
			return errStopReplay
		}
		batch = batch[:0]
		if err := decodeBatchRecord(rec, &dec, func(e engine.Event) error {
			batch = append(batch, e)
			return nil
		}); err != nil {
			return err
		}
		if err := fanOutRecord(sets, idx, batch); err != nil {
			return err
		}
		idx++
		return nil
	})
	if errors.Is(err, errStopReplay) {
		err = nil
	}
	return idx, err
}
