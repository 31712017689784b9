package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"rpai/internal/engine"
	"rpai/internal/serve"
)

// MatrixConfig parameterizes the multicore scaling matrix: the same
// partitioned VWAP workload driven through the full stack — in-process serve
// ingest, loopback wire ingest, and subscription fan-out — at every
// combination of core count (runtime.GOMAXPROCS), shard count, batch size
// and client connection count. Each cell is repeated Iters times after
// Warmup un-timed runs and records its elapsed-time distribution, so two
// matrix runs on the same host are comparable with `rpaibench -compare`.
type MatrixConfig struct {
	Events     int `json:"events"`     // trace length per cell
	Partitions int `json:"partitions"` // distinct partition keys
	// Cores are the GOMAXPROCS values to sweep; 0 means "all" and resolves
	// to runtime.NumCPU(). Duplicates after resolution collapse.
	Cores []int `json:"cores"`
	// Shards and BatchSizes shape the serve-mode cells (cores x shards x
	// batch sizes); serve cells ingest with one producer goroutine per core.
	Shards     []int `json:"shards"`
	BatchSizes []int `json:"batch_sizes"`
	// Conns are the wire-mode client pool sizes (cores x conns cells).
	Conns []int `json:"conns"`
	// Readers is the subscriber count of the fan-out cells (one per core
	// count); 0 skips fan-out.
	Readers  int   `json:"readers"`
	QueueLen int   `json:"queue_len"`
	Iters    int   `json:"iters"`
	Warmup   int   `json:"warmup"`
	Seed     int64 `json:"seed"`
}

// DefaultMatrix returns the scales used for BENCH_matrix.json.
func DefaultMatrix() MatrixConfig {
	return MatrixConfig{
		Events:     100000,
		Partitions: 1024,
		Cores:      []int{1, 2, 4, 0},
		Shards:     []int{1, 4},
		BatchSizes: []int{64, 512},
		Conns:      []int{1, 4},
		Readers:    16,
		QueueLen:   8192,
		Iters:      3,
		Warmup:     1,
		Seed:       1,
	}
}

// QuickMatrix shrinks the matrix for the CI smoke run: one cell per mode at
// 1 and 2 cores, one timed iteration, no warm-up.
func QuickMatrix() MatrixConfig {
	return MatrixConfig{
		Events:     8000,
		Partitions: 128,
		Cores:      []int{1, 2},
		Shards:     []int{2},
		BatchSizes: []int{64},
		Conns:      []int{2},
		Readers:    4,
		QueueLen:   4096,
		Iters:      1,
		Warmup:     0,
		Seed:       1,
	}
}

// MatrixCell is one measured cell of the matrix. Mode selects which knobs
// apply: "serve" uses Shards/Batch/Producers, "wire" uses Conns, "fanout"
// uses Readers. GoMaxProcs is the value observed inside the timed run — the
// proof the runner actually pinned the core count it reports.
type MatrixCell struct {
	Mode         string  `json:"mode"`
	Cores        int     `json:"cores"` // requested GOMAXPROCS (resolved, never 0)
	GoMaxProcs   int     `json:"gomaxprocs"`
	Shards       int     `json:"shards,omitempty"`
	Batch        int     `json:"batch,omitempty"`
	Producers    int     `json:"producers,omitempty"`
	Conns        int     `json:"conns,omitempty"`
	Readers      int     `json:"readers,omitempty"`
	Events       int     `json:"events"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is throughput relative to the cell with the same mode and
	// knobs at the first core count of the sweep.
	Speedup     float64 `json:"speedup"`
	ElapsedDist Dist    `json:"elapsed_dist"`
	// Result is the drained final output, cross-checked for exact equality
	// against the sequential single-shard reference before Matrix returns.
	Result float64 `json:"result"`
}

// MatrixReport is the full experiment output serialized to BENCH_matrix.json.
type MatrixReport struct {
	Header
	Config MatrixConfig `json:"config"`
	Cells  []MatrixCell `json:"cells"`
}

// resolveCores maps the configured core list to concrete GOMAXPROCS values
// (0 -> NumCPU) and collapses duplicates, preserving order.
func resolveCores(cores []int) []int {
	var out []int
	seen := map[int]bool{}
	for _, c := range cores {
		if c <= 0 {
			c = runtime.NumCPU()
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{runtime.NumCPU()}
	}
	return out
}

// Matrix runs the full sweep. Every cell's drained result must equal the
// sequential single-shard reference exactly (the workload is integer-valued,
// so equality is bit-for-bit); divergence is an error, making every matrix
// run a parallel-ingest differential test as a side effect.
func Matrix(cfg MatrixConfig) (*MatrixReport, error) {
	if cfg.Events <= 0 {
		cfg = DefaultMatrix()
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	cores := resolveCores(cfg.Cores)
	rep := &MatrixReport{Header: NewHeader("matrix", cfg.Iters), Config: cfg}
	events := vwapEvents(cfg.Seed, cfg.Events, cfg.Partitions)

	// Sequential single-shard reference for the bit-identity checks.
	wantScalar, wantGroups, err := matrixReference(events)
	if err != nil {
		return nil, err
	}

	// Serve mode: cores x shards x batch sizes, one producer per core.
	for _, shards := range cfg.Shards {
		for _, batch := range cfg.BatchSizes {
			for i, c := range cores {
				cell, err := matrixCell(rep, cores[0], i == 0, MatrixCell{
					Mode: "serve", Cores: c, Shards: shards, Batch: batch, Producers: c,
				}, cfg, func() (float64, float64, error) {
					return matrixServeRun(events, cfg, shards, batch, c)
				}, wantScalar)
				if err != nil {
					return nil, err
				}
				rep.Cells = append(rep.Cells, *cell)
			}
		}
	}

	// Wire mode: cores x client pool sizes over loopback TCP.
	wcfg := WireConfig{
		Events: cfg.Events, Partitions: cfg.Partitions, Shards: maxInt(cfg.Shards),
		BatchSize: 128, MaxInFlight: 32, Seed: cfg.Seed,
	}
	for _, conns := range cfg.Conns {
		for i, c := range cores {
			conns := conns
			cell, err := matrixCell(rep, cores[0], i == 0, MatrixCell{
				Mode: "wire", Cores: c, Conns: conns, Shards: wcfg.Shards,
			}, cfg, func() (float64, float64, error) {
				wp, err := wirePoint(events, wcfg, conns, wantScalar, wantGroups)
				if err != nil {
					return 0, 0, err
				}
				return wp.IngestMS, wp.Result, nil
			}, wantScalar)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, *cell)
		}
	}

	// Fan-out mode: one cell per core count at a fixed reader population.
	if cfg.Readers > 0 {
		fcfg := FanoutConfig{
			Events: cfg.Events, Partitions: cfg.Partitions, Shards: maxInt(cfg.Shards),
			BatchSize: 128, SubBuffer: 256, Seed: cfg.Seed,
		}
		for i, c := range cores {
			cell, err := matrixCell(rep, cores[0], i == 0, MatrixCell{
				Mode: "fanout", Cores: c, Readers: cfg.Readers, Shards: fcfg.Shards,
			}, cfg, func() (float64, float64, error) {
				var p FanoutPoint
				if err := fanoutPush(events, fcfg, cfg.Readers, &p); err != nil {
					return 0, 0, err
				}
				// The cell's elapsed is until every subscriber view caught
				// up; its "result" is the push-identity check (fanoutPush
				// fails on divergence), so reuse the scalar reference.
				return p.PushElapsedMS, wantScalar, nil
			}, wantScalar)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, *cell)
		}
	}
	return rep, nil
}

// matrixCell measures one cell: GOMAXPROCS pinned to cell.Cores, Warmup
// un-timed runs, Iters timed runs summarized into the cell's distribution,
// and the result cross-checked against the reference. baseline cells (first
// core count) anchor the speedup of the cells sharing their knobs.
func matrixCell(rep *MatrixReport, baseCores int, isBase bool, cell MatrixCell,
	cfg MatrixConfig, run func() (float64, float64, error), want float64) (*MatrixCell, error) {
	cell.Events = cfg.Events
	var res float64
	err := withMaxProcs(cell.Cores, func() error {
		cell.GoMaxProcs = runtime.GOMAXPROCS(0)
		dist, err := measure(cfg.Warmup, cfg.Iters, func() (float64, error) {
			ms, r, err := run()
			res = r
			return ms, err
		})
		if err != nil {
			return err
		}
		cell.ElapsedDist = dist
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: matrix %s cell (cores=%d shards=%d batch=%d conns=%d): %w",
			cell.Mode, cell.Cores, cell.Shards, cell.Batch, cell.Conns, err)
	}
	if math.Float64bits(res) != math.Float64bits(want) {
		return nil, fmt.Errorf("bench: matrix %s cell (cores=%d shards=%d batch=%d conns=%d) diverged: %g vs reference %g",
			cell.Mode, cell.Cores, cell.Shards, cell.Batch, cell.Conns, res, want)
	}
	cell.Result = res
	cell.ElapsedMS = cell.ElapsedDist.Mean
	if cell.ElapsedMS > 0 {
		cell.EventsPerSec = float64(cfg.Events) / (cell.ElapsedMS / 1e3)
	}
	if isBase {
		cell.Speedup = 1
	} else if base := findBase(rep.Cells, cell, baseCores); base != nil && base.EventsPerSec > 0 {
		cell.Speedup = cell.EventsPerSec / base.EventsPerSec
	}
	return &cell, nil
}

// findBase locates the cell with the same mode and knobs at the sweep's
// first core count.
func findBase(cells []MatrixCell, c MatrixCell, baseCores int) *MatrixCell {
	for i := range cells {
		b := &cells[i]
		if b.Mode == c.Mode && b.Cores == baseCores &&
			b.Shards == c.Shards && b.Batch == c.Batch &&
			b.Conns == c.Conns && b.Readers == c.Readers {
			return b
		}
	}
	return nil
}

// matrixReference replays the trace sequentially through a single-shard
// service: the ground truth every matrix cell must reproduce bit for bit.
func matrixReference(events []engine.Event) (float64, []engine.GroupResult, error) {
	svc, err := serve.ForQuery(vwapQuery(), []string{"sym"}, serve.Options{Shards: 1})
	if err != nil {
		return 0, nil, err
	}
	defer svc.Close()
	for _, e := range events {
		if err := svc.Apply(e); err != nil {
			return 0, nil, err
		}
	}
	if err := svc.Drain(); err != nil {
		return 0, nil, err
	}
	return svc.Result(), svc.ResultGrouped(), nil
}

// matrixServeRun is one serve-mode repetition: a fresh service ingested by
// `producers` goroutines, each applying its partition-disjoint slice of the
// trace in ApplyBatch chunks of `batch`. Events are split by partition-key
// hash, so per-partition order is preserved and the drained result is
// bit-identical to the sequential replay.
func matrixServeRun(events []engine.Event, cfg MatrixConfig, shards, batch, producers int) (float64, float64, error) {
	svc, err := serve.ForQuery(vwapQuery(), []string{"sym"},
		serve.Options{Shards: shards, BatchSize: batch, QueueLen: cfg.QueueLen})
	if err != nil {
		return 0, 0, err
	}
	defer svc.Close()
	if producers < 1 {
		producers = 1
	}
	slices := make([][]engine.Event, producers)
	if producers == 1 {
		slices[0] = events
	} else {
		for _, e := range events {
			p := int(uint64(math.Float64bits(e.Tuple["sym"])) % uint64(producers))
			slices[p] = append(slices[p], e)
		}
	}
	errs := make([]error, producers)
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			evs := slices[p]
			for off := 0; off < len(evs); off += batch {
				end := off + batch
				if end > len(evs) {
					end = len(evs)
				}
				if err := svc.ApplyBatch(evs[off:end]); err != nil {
					errs[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	if err := svc.Drain(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	return float64(elapsed.Microseconds()) / 1e3, svc.Result(), nil
}

func maxInt(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// MatrixJSON serializes the report for BENCH_matrix.json.
func MatrixJSON(rep *MatrixReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FormatMatrix renders the report as an aligned text table.
func FormatMatrix(rep *MatrixReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "multicore scaling matrix (%d events, %d partitions, host %d CPUs, %d iters)\n",
		rep.Config.Events, rep.Config.Partitions, rep.Host.NumCPU, rep.Iterations)
	fmt.Fprintf(&b, "%-8s %6s %7s %6s %6s %8s %11s %13s %9s %8s\n",
		"mode", "cores", "shards", "batch", "conns", "readers", "elapsed", "events/sec", "speedup", "rsd%")
	for _, c := range rep.Cells {
		fmt.Fprintf(&b, "%-8s %6d %7d %6d %6d %8d %10.1fms %13.0f %8.2fx %7.1f\n",
			c.Mode, c.Cores, c.Shards, c.Batch, c.Conns, c.Readers,
			c.ElapsedMS, c.EventsPerSec, c.Speedup, c.ElapsedDist.RSD)
	}
	return b.String()
}
