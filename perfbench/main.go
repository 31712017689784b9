// Command perfbench is the repository benchmark. It builds a seeded warm data
// directory in-process, boots cmd/rpaiserver on fresh copies of it as a
// subprocess, drives the daemon over internal/wire/client from this single
// generator process, checks every registered query bit for bit against an
// in-process catalog fed the same trace, and prints one JSON result line.
//
//	perfbench -server <rpaiserver binary> --workload ingest_1q --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it records
// spans around every call into the program, runs the in-process per-layer
// ladder, and reports the per-layer metrics. run.sh builds both binaries and
// is the entry point BENCHMARK.json names.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"rpai/internal/catalog"
)

// Boots per untraced run: set-up time is the median over these.
const boots = 5

// The idle probe after a closed loop: markers at this rate, each flushed and
// watched by one subscriber, then the pull reader alone — the visibility and
// read service times of the workload's state without ingest queueing. Reads
// get their own stretch because a read that lands while the daemon applies a
// marker to 8 state sets measures that apply, not the read.
const (
	probeRate = 1000
	probeDur  = 2 * time.Second
)

// The metrics each mode reports, in BENCHMARK.json's order.
var (
	endToEndMetrics = []string{"ingest_eps", "visible_p50_ms", "setup_s", "heap_live_mb"}
	perLayerMetrics = []string{
		"rpai.ns_per_event", "rpai.allocs_per_event",
		"engine.ns_per_event", "engine.allocs_per_event",
		"serve.ns_per_event", "serve.allocs_per_event", "serve.events_per_publish", "serve.enqueue_wait_ns_per_event",
		"checkpoint.wal_ns_per_event", "checkpoint.wal_bytes_per_event", "checkpoint.recover_ns_per_event", "checkpoint.snapshot_write_ms",
		"catalog.ns_per_event", "catalog.fanout_ns_per_event",
		"wire.ns_per_event", "wire.allocs_per_event", "wire.bytes_per_event", "wire.shed_frac",
		"push.ns_per_frame", "push.frames_per_publish", "push.visible_p99_ms", "push.visible_samples",
		"client.batch_wait_ms", "read_p50_us", "read_p99_us", "read_samples", "gen.lag_p99_ms",
		"ops_failed_frac", "trace.overhead_frac",
	}
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	work     string
	commit   string
}

// output is the last line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: ingest_1q, shared_64q or push_paced")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report the per-layer metrics")
	flag.StringVar(&o.server, "server", "", "rpaiserver binary")
	flag.StringVar(&o.work, "work", "", "work directory for binaries, data directories and spans")
	flag.StringVar(&o.commit, "commit", "unknown", "commit the binaries were built from")
	flag.Parse()
	o.trace = trace == 1
	if o.server == "" || o.work == "" || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -server, -work and a positive --seconds are required")
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct || out.Failed > 0 {
		os.Exit(1)
	}
}

func run(o options) (*output, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	// Fewer generator collections while measuring: the generator shares the
	// CPUs with the daemon, and its GC would show up as daemon latency.
	debug.SetGCPercent(400)
	info, _ := json.Marshal(map[string]any{
		"workload": w.name, "why": w.why, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": procs, "gomaxprocs_generator": runtime.GOMAXPROCS(0), "gomaxprocs_daemon": procs,
		"go_version": runtime.Version(), "commit": o.commit, "source_sha256": sourceHash("."), "queries": len(w.sqls),
	})
	fmt.Println(string(info))

	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up: the warm directory, then boots on fresh copies of it.
	warm := filepath.Join(dir, "warm")
	warmStart := time.Now()
	g, warmRef, err := buildWarm(warm, w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("building the warm directory: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: warm directory %.1f MiB (%d+%d events) in %.1fs\n",
		float64(dirSize(warm))/(1<<20), w.warmBase, w.warmTail, time.Since(warmStart).Seconds())
	n := boots
	if o.trace {
		n = 1
	}
	var setups []float64
	var d *daemon
	for b := 0; b < n; b++ {
		boot := filepath.Join(dir, fmt.Sprintf("boot%d", b))
		if err := copyDir(warm, boot); err != nil {
			return nil, err
		}
		bs := tr.begin()
		dd, setup, err := bootAndVerify(o.server, boot, w, procs, warmRef)
		tr.end("setup", "rpaiserver.boot", 0, bs, w.warmTail)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b, err)
		}
		setups = append(setups, setup.Seconds())
		if b < n-1 {
			dd.kill()
			os.RemoveAll(boot)
		} else {
			d = dd
		}
	}
	defer d.kill()
	fmt.Fprintf(os.Stderr, "perfbench: set-up %v s\n", setups)

	out, err := measure(o, w, d, g, tr, procs)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	if o.trace {
		lm, err := ladder(o.seed, dir, procs, tr)
		if err != nil {
			return nil, err
		}
		for k, v := range lm {
			out.Metrics[k] = v
		}
		path := filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
		nspans, err := tr.write(path)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", nspans, path)
	} else {
		out.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	want := endToEndMetrics
	if o.trace {
		want = perLayerMetrics
	}
	if len(out.Metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, want %d", len(out.Metrics), len(want))
	}
	for _, name := range want {
		v, ok := out.Metrics[name]
		if !ok || !metricName.MatchString(name) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %q missing, misnamed or not a number", name)
		}
	}
	return out, nil
}

// measure drives the booted daemon through the workload, checks the final
// state against the reference and reads the daemon's heap.
func measure(o options, w workload, d *daemon, g *gen, tr *tracer, procs int) (*output, error) {
	var ops ops
	var batchWait dist
	var onAck func(time.Duration)
	if o.trace {
		onAck = func(t time.Duration) { batchWait.add(float64(t) / 1e6) }
	}
	// The closed loops ingest over one connection per CPU. The open loop
	// uses one, so its client batches fill and seal by size rather than
	// waiting out the flush timer.
	conns := procs
	if w.rate > 0 {
		conns = 1
	}
	ing, err := ingestClient(d.addr, conns, onAck)
	if err != nil {
		return nil, err
	}
	defer ing.Close()
	c0, err := readCounters(ing)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(o.seconds) * time.Second
	s := &stream{g: g, markerEvery: w.markerEvery}
	markers := int(probeRate*probeDur.Seconds()) + 1
	if w.rate > 0 {
		markers = int(w.rate*dur.Seconds())/w.markerEvery + 1
	}
	book, err := newMarkerBook(w.sqls[0], markers)
	if err != nil {
		return nil, err
	}
	const qid = catalog.QueryID(1)

	var phases []phase
	var eps float64
	var pr pacedResult
	if w.rate == 0 {
		n, elapsed, err := closedLoop(ing, s, dur, tr)
		phases = append(phases, phase{n, 0})
		if err != nil {
			ops.add(n, n)
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		ops.add(n, 0)
		eps = float64(n) / elapsed.Seconds()
		s.markerEvery = 1
		pr, err = paced(d.addr, ing, s, book, qid, pacedConfig{rate: probeRate, dur: probeDur, subscribers: 1, flushEach: true}, &ops, tr)
		phases = append(phases, phase{pr.sent, 1})
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		ops.add(pr.sent, 0)
		if pr.reads, err = readPhase(d.addr, qid, probeDur, &ops, tr); err != nil {
			return nil, fmt.Errorf("probe reads: %w", err)
		}
	} else {
		pr, err = paced(d.addr, ing, s, book, qid, pacedConfig{rate: w.rate, dur: dur, subscribers: w.subscribers, reads: true}, &ops, tr)
		phases = append(phases, phase{pr.sent, w.markerEvery})
		if err != nil {
			return nil, fmt.Errorf("paced loop: %w", err)
		}
		ops.add(pr.sent, 0)
		eps = float64(pr.sent) / pr.elapsed.Seconds()
	}
	if pr.fellBehind || pr.rateShort {
		// An open loop that could not keep its schedule measured the
		// generator: every event it sent counts as failed.
		fmt.Fprintf(os.Stderr, "perfbench: generator fell behind (lag %s) or missed its rate\n", describe(pr.lag, "ms"))
		ops.add(0, pr.sent)
	}
	c1, err := readCounters(ing)
	if err != nil {
		return nil, err
	}
	delta := c1.sub(c0)
	ops.add(0, int(delta.shed))

	// Correctness: every query, scalar and grouped, bit for bit.
	rs := tr.begin()
	got, err := readAll(ing)
	tr.end("check", "client.readAll", 0, rs, 0)
	if err != nil {
		return nil, err
	}
	refStart := time.Now()
	ref, err := reference(w, o.seed, phases, procs)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: reference replay %.1fs\n", time.Since(refStart).Seconds())
	correct := true
	if msg := ref.diff(got); msg != "" {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", msg)
		correct = false
		ops.add(1, 1)
	}
	heap, err := d.heapLive()
	if err != nil {
		return nil, fmt.Errorf("reading the daemon heap: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s ingest %.0f ev/s; visible %s; read %s; lag %s; frames %d; heap %.1f MiB\n",
		w.name, eps, describe(pr.visible, "ms"), describe(pr.reads, "us"), describe(pr.lag, "ms"), pr.frames, heap/(1<<20))

	out := &output{Correct: correct, Attempted: ops.attempted.Load(), Failed: ops.failed.Load(), Metrics: map[string]metric{}}
	if !o.trace {
		out.Metrics["ingest_eps"] = metric{eps, "events/s"}
		out.Metrics["visible_p50_ms"] = metric{quantile(pr.visible, 0.5), "ms"}
		out.Metrics["heap_live_mb"] = metric{heap / (1 << 20), "MiB"}
		return out, nil
	}
	bw := batchWait.sorted()
	for _, l := range []struct {
		name, unit string
		v          []float64
	}{{"push.visible_p99_ms", "ms", pr.visible}, {"read_p99_us", "us", pr.reads}, {"gen.lag_p99_ms", "ms", pr.lag}} {
		if !supported(len(l.v), 99) {
			return nil, fmt.Errorf("%s: %d samples cannot support a 99th percentile", l.name, len(l.v))
		}
		out.Metrics[l.name] = metric{quantile(l.v, 0.99), l.unit}
	}
	out.Metrics["push.visible_samples"] = metric{float64(len(pr.visible)), "count"}
	out.Metrics["read_p50_us"] = metric{quantile(pr.reads, 0.5), "us"}
	out.Metrics["read_samples"] = metric{float64(len(pr.reads)), "count"}
	out.Metrics["client.batch_wait_ms"] = metric{quantile(bw, 0.5), "ms"}
	out.Metrics["serve.events_per_publish"] = metric{float64(delta.applied) / math.Max(float64(delta.flushed), 1), "count"}
	out.Metrics["serve.enqueue_wait_ns_per_event"] = metric{float64(delta.waitNS) / math.Max(float64(delta.applied), 1), "ns"}
	out.Metrics["wire.shed_frac"] = metric{float64(delta.shed) / math.Max(float64(delta.accepted+delta.shed), 1), "fraction"}
	out.Metrics["ops_failed_frac"] = metric{float64(out.Failed) / float64(out.Attempted), "fraction"}
	return out, nil
}

// sourceHash identifies the code under test when the checkout carries no
// commit: a SHA-256 over the paths and contents of every Go source and module
// file under root, build outputs excluded.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// reference replays the warm prefix and the run's phases into an in-memory
// catalog. It runs one shard per CPU (the daemon runs one), which changes
// where partitions live but not any partition's result.
func reference(w workload, seed int64, phases []phase, procs int) (results, error) {
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: procs})
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	if err := registerAll(cat, w); err != nil {
		return nil, err
	}
	g := newGen(seed)
	if err := feed(cat, w.warmBase+w.warmTail, g.next); err != nil {
		return nil, err
	}
	s := &stream{g: g}
	for _, ph := range phases {
		s.markerEvery = ph.markerEvery
		if err := feed(cat, ph.slots, func() ev { e, _ := s.next(); return e }); err != nil {
			return nil, err
		}
	}
	return catalogResults(cat)
}
