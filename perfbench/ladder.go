package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/rpai"
	"rpai/internal/serve"
	"rpai/internal/sqlparse"
	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

// The ladder runs one seeded trace through cumulative rungs in-process; a
// layer's self cost is its rung minus the rung below:
//
//	rpai      tree operations of the VWAP maintenance, replayed on rpai.ArenaTree
//	engine    per-partition executors, engine ApplyBatch
//	serve     1-shard serve.ForQuery, no Dir
//	catalog1  in-memory catalog, 1 query
//	catalog64 in-memory catalog, 64 queries on 8 state sets (fan-out = 64 - 1)
//	durable   durable catalog, 1 query (checkpoint WAL = durable - catalog1)
//	wire      loopback wire.NewCatalogServer + client over the durable catalog
//	push      wire plus 16 push subscribers
const (
	ladderEvents = 50_000
	ladderReps   = 3 // per mode; each rung reports its minimum
	pushSubs     = 16
)

// rungNames is the run order: catalog1 first, because it is the reference
// the other 1-query rungs check.
var rungNames = []string{"catalog1", "rpai", "engine", "serve", "catalog64", "durable", "wire", "push"}

// rungRun is one timed pass of a rung.
type rungRun struct {
	d       time.Duration
	mallocs uint64
}

// timed runs fn with allocation counting around it; set-up stays outside.
func timed(fn func() error) (rungRun, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return rungRun{d: d, mallocs: m1.Mallocs - m0.Mallocs}, err
}

// ladderEnv is the shared input of every rung.
type ladderEnv struct {
	events  []engine.Event
	batches [][]engine.Event
	sql     string
	sqls64  []string
	ref     results // catalog1's results, which every 1-query rung must equal
	ref64   results // catalog64's first pass, which later passes must equal
	work    string
	procs   int
	extra   map[string]float64
}

func ladder(seed int64, work string, procs int, tr *tracer) (map[string]metric, error) {
	w1, err := newWorkload("ingest_1q", seed)
	if err != nil {
		return nil, err
	}
	w64, err := newWorkload("shared_64q", seed)
	if err != nil {
		return nil, err
	}
	env := &ladderEnv{sql: w1.sqls[0], sqls64: w64.sqls, work: work, procs: procs, extra: map[string]float64{}}
	g := newGen(seed)
	env.events = make([]engine.Event, ladderEvents)
	for i := range env.events {
		env.events[i] = g.next().event()
	}
	for i := 0; i < len(env.events); i += applyBatch {
		env.batches = append(env.batches, env.events[i:min(i+applyBatch, len(env.events))])
	}
	rungs := map[string]func(*tracer) (rungRun, error){
		"rpai": env.rpaiRung, "engine": env.engineRung, "serve": env.serveRung,
		"catalog1":  func(tr *tracer) (rungRun, error) { return env.catalogRung(tr, "catalog1", []string{env.sql}) },
		"catalog64": func(tr *tracer) (rungRun, error) { return env.catalogRung(tr, "catalog64", env.sqls64) },
		"durable":   env.durableRung,
		"wire":      func(tr *tracer) (rungRun, error) { return env.wireRung(tr, "wire", 0) },
		"push":      func(tr *tracer) (rungRun, error) { return env.wireRung(tr, "push", pushSubs) },
	}
	// Passes alternate untraced and traced; each rung keeps its minimum per
	// mode, and the layer numbers take the minimum over both.
	bestBy := [2]map[string]rungRun{{}, {}}
	for rep := 0; rep < 2*ladderReps; rep++ {
		mode := rep % 2
		var rtr *tracer
		if mode == 1 {
			rtr = tr
		}
		for _, name := range rungNames {
			mark := rtr.mark()
			st := rtr.begin()
			r, err := rungs[name](rtr)
			if err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", name, err)
			}
			if id := rtr.end(name, "rung."+name, 0, st, len(env.events)); id != 0 {
				rtr.adopt(mark, id)
			}
			if b, ok := bestBy[mode][name]; ok {
				r = rungRun{d: min(r.d, b.d), mallocs: min(r.mallocs, b.mallocs)}
			}
			bestBy[mode][name] = r
		}
	}
	best := map[string]rungRun{}
	var plain, traced time.Duration
	for _, name := range rungNames {
		p, t := bestBy[0][name], bestBy[1][name]
		best[name] = rungRun{d: min(p.d, t.d), mallocs: min(p.mallocs, t.mallocs)}
		plain += p.d
		traced += t.d
	}
	n := float64(len(env.events))
	ns := func(name string) float64 { return float64(best[name].d.Nanoseconds()) / n }
	al := func(name string) float64 { return float64(best[name].mallocs) / n }
	m := map[string]metric{
		"rpai.ns_per_event":               {ns("rpai"), "ns"},
		"rpai.allocs_per_event":           {al("rpai"), "count"},
		"engine.ns_per_event":             {ns("engine") - ns("rpai"), "ns"},
		"engine.allocs_per_event":         {al("engine") - al("rpai"), "count"},
		"serve.ns_per_event":              {ns("serve") - ns("engine"), "ns"},
		"serve.allocs_per_event":          {al("serve") - al("engine"), "count"},
		"catalog.ns_per_event":            {ns("catalog1") - ns("serve"), "ns"},
		"catalog.fanout_ns_per_event":     {ns("catalog64") - ns("catalog1"), "ns"},
		"checkpoint.wal_ns_per_event":     {ns("durable") - ns("catalog1"), "ns"},
		"checkpoint.wal_bytes_per_event":  {env.extra["wal_bytes"] / n, "bytes"},
		"checkpoint.recover_ns_per_event": {env.extra["recover_ns"] / n, "ns"},
		"checkpoint.snapshot_write_ms":    {env.extra["snapshot_ns"] / 1e6, "ms"},
		"wire.ns_per_event":               {ns("wire") - ns("durable"), "ns"},
		"wire.allocs_per_event":           {al("wire") - al("durable"), "count"},
		"wire.bytes_per_event":            {env.extra["wire_bytes"] / n, "bytes"},
		"push.ns_per_frame":               {(ns("push") - ns("wire")) * n / math.Max(env.extra["push_frames"], 1), "ns"},
		"push.frames_per_publish":         {env.extra["push_frames"] / math.Max(env.extra["push_publishes"], 1), "count"},
		"trace.overhead_frac":             {float64(traced)/float64(plain) - 1, "fraction"},
	}
	for _, name := range rungNames {
		fmt.Fprintf(os.Stderr, "perfbench: ladder %-9s %8.1f ns/event %6.2f allocs/event\n", name, ns(name), al(name))
	}
	return m, nil
}

// rpaiRung replays, per event, the tree operations the relstate executor
// issues for the VWAP shape — a prefix-sum probe and point lookup on the
// price index, key shifts and point updates on the count and term RPAI
// trees — and one threshold probe per touched partition per batch.
func (env *ladderEnv) rpaiRung(tr *tracer) (rungRun, error) {
	type trees struct{ byKey, cnt, term *rpai.ArenaTree }
	parts := make([]trees, partitions)
	for i := range parts {
		parts[i] = trees{rpai.NewArena(), rpai.NewArena(), rpai.NewArena()}
	}
	touched := make([]bool, partitions)
	var sink float64
	r, err := timed(func() error {
		for _, b := range env.batches {
			tr.span("rpai", "rpai.ArenaTree", len(b), func() error {
				for _, e := range b {
					p := int(e.Tuple["sym"])
					t := &parts[p]
					k, w, x := e.Tuple["price"], e.Tuple["volume"], e.X
					rhs := t.byKey.GetSum(k)
					volAt, _ := t.byKey.Get(k)
					t.cnt.ShiftKeys(rhs-volAt, x*w)
					t.term.ShiftKeys(rhs-volAt, x*w)
					t.byKey.Add(k, x*w)
					if v, _ := t.byKey.Get(k); v == 0 {
						t.byKey.Delete(k)
					}
					key := rhs + x*w
					t.cnt.Add(key, x)
					t.term.Add(key, x*k*w)
					if v, ok := t.cnt.Get(key); ok && v == 0 {
						t.cnt.Delete(key)
						t.term.Delete(key)
					}
					touched[p] = true
				}
				for p, on := range touched {
					if on {
						thr := 0.75 * parts[p].byKey.Total()
						sink += parts[p].cnt.GetSumLess(thr) + parts[p].term.GetSumLess(thr)
						touched[p] = false
					}
				}
				return nil
			})
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	for _, t := range parts {
		for _, x := range []*rpai.ArenaTree{t.byKey, t.cnt, t.term} {
			if err := x.Validate(); err != nil {
				return r, err
			}
		}
	}
	_ = sink
	return r, nil
}

// engineRung runs one executor per partition, each batch split into
// per-partition runs.
func (env *ladderEnv) engineRung(tr *tracer) (rungRun, error) {
	q, err := sqlparse.Parse(env.sql)
	if err != nil {
		return rungRun{}, err
	}
	exs := make([]engine.BatchExecutor, partitions)
	for i := range exs {
		ex, err := engine.New(q)
		if err != nil {
			return rungRun{}, err
		}
		be, ok := ex.(engine.BatchExecutor)
		if !ok {
			return rungRun{}, fmt.Errorf("executor %s has no ApplyBatch", ex.Strategy())
		}
		exs[i] = be
	}
	runs := make([][]engine.Event, partitions)
	r, err := timed(func() error {
		for _, b := range env.batches {
			for _, e := range b {
				p := int(e.Tuple["sym"])
				runs[p] = append(runs[p], e)
			}
			tr.span("engine", "engine.ApplyBatch", len(b), func() error {
				for p, run := range runs {
					if len(run) > 0 {
						exs[p].ApplyBatch(run)
						runs[p] = run[:0]
					}
				}
				return nil
			})
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	// Every partition's result must equal the catalog's group bit for bit.
	for _, want := range env.ref[1].Grouped {
		got := exs[int(want.Key[0])].Result()
		if math.Float64bits(got) != math.Float64bits(want.Value) {
			return r, fmt.Errorf("partition %v: engine %v, catalog %v", want.Key, got, want.Value)
		}
	}
	return r, nil
}

func (env *ladderEnv) serveRung(tr *tracer) (rungRun, error) {
	q, err := sqlparse.Parse(env.sql)
	if err != nil {
		return rungRun{}, err
	}
	svc, err := serve.ForQuery(q, []string{"sym"}, serve.Options{Shards: 1})
	if err != nil {
		return rungRun{}, err
	}
	defer svc.Close()
	r, err := timed(func() error {
		for _, b := range env.batches {
			if err := tr.span("serve", "serve.ApplyBatch", len(b), func() error { return svc.ApplyBatch(b) }); err != nil {
				return err
			}
		}
		return tr.span("serve", "serve.Drain", len(env.events), svc.Drain)
	})
	if err != nil {
		return r, err
	}
	got := results{1: {Scalar: svc.Result(), Grouped: svc.ResultGrouped()}}
	if msg := (results{1: env.ref[1]}).diff(got); msg != "" {
		return r, fmt.Errorf("serve differs from catalog: %s", msg)
	}
	return r, nil
}

// catalogRung ingests into an in-memory catalog; its first pass becomes the
// reference for later passes (and, with one query, for the other rungs).
func (env *ladderEnv) catalogRung(tr *tracer, rung string, sqls []string) (rungRun, error) {
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: 1})
	if err != nil {
		return rungRun{}, err
	}
	defer cat.Close()
	for _, sql := range sqls {
		if _, _, err := cat.Register(sql); err != nil {
			return rungRun{}, err
		}
	}
	r, err := timed(func() error { return env.ingestCatalog(tr, rung, cat) })
	if err != nil {
		return r, err
	}
	got, err := catalogResults(cat)
	if err != nil {
		return r, err
	}
	ref := &env.ref
	if len(sqls) > 1 {
		ref = &env.ref64
	}
	if *ref == nil {
		*ref = got
	} else if msg := ref.diff(got); msg != "" {
		return r, fmt.Errorf("%s result changed between passes: %s", rung, msg)
	}
	return r, nil
}

func (env *ladderEnv) ingestCatalog(tr *tracer, rung string, cat *catalog.Service) error {
	for _, b := range env.batches {
		if err := tr.span(rung, "catalog.ApplyBatch", len(b), func() error { return cat.ApplyBatch(b) }); err != nil {
			return err
		}
	}
	return tr.span(rung, "catalog.DrainAll", len(env.events), cat.DrainAll)
}

// freshDir returns an empty directory under the work directory.
func (env *ladderEnv) freshDir(name string) (string, error) {
	dir := filepath.Join(env.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(filepath.Dir(dir), 0o755)
}

func (env *ladderEnv) durableCatalog(name string) (*catalog.Service, string, error) {
	dir, err := env.freshDir(name)
	if err != nil {
		return nil, "", err
	}
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: 1, Dir: dir})
	if err != nil {
		return nil, "", err
	}
	if _, _, err := cat.Register(env.sql); err != nil {
		cat.Close()
		return nil, "", err
	}
	return cat, dir, nil
}

// durableRung ingests into a durable catalog. Its first pass also prices
// recovery (catalog.Recover replaying the whole trace from the WAL) and one
// Checkpoint of the recovered state.
func (env *ladderEnv) durableRung(tr *tracer) (rungRun, error) {
	cat, dir, err := env.durableCatalog("ladder-durable")
	if err != nil {
		return rungRun{}, err
	}
	defer os.RemoveAll(dir)
	defer cat.Close()
	r, err := timed(func() error { return env.ingestCatalog(tr, "durable", cat) })
	if err != nil {
		return r, err
	}
	if _, ok := env.extra["recover_ns"]; ok {
		return r, nil
	}
	env.extra["wal_bytes"] = float64(dirSize(dir))
	if err := cat.Close(); err != nil {
		return r, err
	}
	var rec *catalog.Service
	rr, err := timed(func() error {
		return tr.span("durable", "catalog.Recover", len(env.events), func() (err error) {
			rec, err = catalog.Recover(catalog.Options{PartitionBy: []string{"sym"}, Shards: 1, Dir: dir})
			return err
		})
	})
	if err != nil {
		return r, err
	}
	defer rec.Close()
	got, err := catalogResults(rec)
	if err != nil {
		return r, err
	}
	if msg := env.ref.diff(got); msg != "" {
		return r, fmt.Errorf("recovered catalog: %s", msg)
	}
	cr, err := timed(func() error { return tr.span("durable", "catalog.Checkpoint", 0, rec.Checkpoint) })
	if err != nil {
		return r, err
	}
	env.extra["recover_ns"] = float64(rr.d.Nanoseconds())
	env.extra["snapshot_ns"] = float64(cr.d.Nanoseconds())
	return r, nil
}

// countingListener counts the bytes the server reads.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// wireRung serves a durable 1-query catalog over loopback and ingests
// through the client; with subscribers it is the push rung.
func (env *ladderEnv) wireRung(tr *tracer, rung string, subs int) (rungRun, error) {
	cat, dir, err := env.durableCatalog("ladder-" + rung)
	if err != nil {
		return rungRun{}, err
	}
	defer os.RemoveAll(dir)
	defer cat.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rungRun{}, err
	}
	var bytes atomic.Int64
	srv := wire.NewCatalogServer(cat, wire.ServerConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(countingListener{ln, &bytes}) }()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := ingestClient(ln.Addr().String(), env.procs, nil)
	if err != nil {
		return rungRun{}, err
	}
	defer c.Close()
	var frames atomic.Int64
	var wg sync.WaitGroup
	var subList []*client.Subscription
	for j := 0; j < subs; j++ {
		var keys [][]float64
		for p := j; p < partitions; p += subs {
			keys = append(keys, []float64{float64(p)})
		}
		sub, err := c.SubscribeQuery(1, client.SubOptions{Keys: keys, Buffer: 256})
		if err != nil {
			return rungRun{}, err
		}
		subList = append(subList, sub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.Frames() {
				frames.Add(1)
			}
		}()
	}
	before, err := cat.ShardStats(1)
	if err != nil {
		return rungRun{}, err
	}
	// Let the subscription seed frames land before the clock starts.
	time.Sleep(20 * time.Millisecond)
	seed := frames.Load()
	bytes.Store(0)
	r, err := timed(func() error {
		for _, b := range env.batches {
			err := tr.span(rung, "client.Apply", len(b), func() error {
				for _, e := range b {
					if err := c.Apply(e); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return tr.span(rung, "client.Drain", len(env.events), c.Drain)
	})
	if err != nil {
		return r, err
	}
	after, err := cat.ShardStats(1)
	if err != nil {
		return r, err
	}
	got, err := readAll(c)
	if err != nil {
		return r, err
	}
	// Let the last frames land before counting them.
	for last := int64(-1); last != frames.Load(); {
		last = frames.Load()
		time.Sleep(10 * time.Millisecond)
	}
	for _, sub := range subList {
		sub.Close()
	}
	wg.Wait()
	if msg := env.ref.diff(got); msg != "" {
		return r, fmt.Errorf("%s rung: %s", rung, msg)
	}
	if _, ok := env.extra[rung+"_frames"]; !ok {
		var pubs uint64
		for i := range after {
			pubs += after[i].Flushed - before[i].Flushed
		}
		env.extra[rung+"_bytes"] = float64(bytes.Load())
		env.extra[rung+"_frames"] = float64(frames.Load() - seed)
		env.extra[rung+"_publishes"] = float64(pubs)
	}
	return r, nil
}
