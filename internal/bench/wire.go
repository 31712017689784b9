package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"rpai/internal/engine"
	"rpai/internal/serve"
	"rpai/internal/wire/client"
)

// WireConfig parameterizes the networked-serving experiment: the partitioned
// VWAP workload ingested through the TCP wire protocol (server + pipelined
// client over loopback) at several connection pool sizes, against an
// in-process service fed the same trace. The point of the experiment is the
// cost of the network hop: throughput and batch-ack latency per pool size,
// with the results required to stay bit-identical to in-process serving.
type WireConfig struct {
	Events      int   `json:"events"`        // trace length
	Partitions  int   `json:"partitions"`    // distinct partition keys
	Shards      int   `json:"shards"`        // server-side shard count
	Conns       []int `json:"conns"`         // client pool sizes to sweep
	BatchSize   int   `json:"batch_size"`    // client batch size
	MaxInFlight int   `json:"max_in_flight"` // client per-conn pipeline depth
	Seed        int64 `json:"seed"`
	// Iters is the number of timed repetitions per pool size (default 1);
	// each point records the ingest-time distribution across them. Warmup
	// runs precede the timed ones un-recorded.
	Iters  int `json:"iters,omitempty"`
	Warmup int `json:"warmup,omitempty"`
}

// DefaultWire returns the scales used for BENCH_wire.json.
func DefaultWire() WireConfig {
	return WireConfig{
		Events:      120000,
		Partitions:  512,
		Shards:      4,
		Conns:       []int{1, 2, 4},
		BatchSize:   128,
		MaxInFlight: 32,
		Seed:        1,
		Iters:       3,
		Warmup:      1,
	}
}

// WirePoint is one measured pool size.
type WirePoint struct {
	Conns         int     `json:"conns"`
	IngestMS      float64 `json:"ingest_ms"` // Apply..Drain wall clock
	EventsPerSec  float64 `json:"events_per_sec"`
	Batches       int     `json:"batches"`      // acknowledged batches
	BatchP50US    float64 `json:"batch_p50_us"` // batch ack latency percentiles
	BatchP99US    float64 `json:"batch_p99_us"`
	Shed          uint64  `json:"shed"`           // server-side shed count (0 at these rates)
	Result        float64 `json:"result"`         // cross-checked against in-process serving
	ResultMatches bool    `json:"result_matches"` // scalar and grouped, bit for bit
	// IngestDist is the ingest-ms distribution over Config.Iters timed
	// repetitions; IngestMS and EventsPerSec derive from its mean.
	IngestDist Dist `json:"ingest_dist"`
}

// WireReport is the full experiment output serialized to BENCH_wire.json.
type WireReport struct {
	Header
	Config      WireConfig  `json:"config"`
	InProcessMS float64     `json:"in_process_ms"` // same trace, no network
	Points      []WirePoint `json:"points"`
}

// Wire runs the networked-serving experiment: Example 2.2 VWAP per symbol,
// served by a one-query catalog behind the wire server. Every networked
// run's scalar and grouped results must equal the in-process reference
// exactly.
func Wire(cfg WireConfig) (*WireReport, error) {
	if len(cfg.Conns) == 0 {
		cfg.Conns = []int{1}
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 1
	}
	rep := &WireReport{Header: NewHeader("wire", cfg.Iters), Config: cfg}
	q := vwapQuery()
	events := vwapEvents(cfg.Seed, cfg.Events, cfg.Partitions)

	// In-process reference: same service configuration, no network.
	ref, err := serve.ForQuery(q, []string{"sym"}, serve.Options{Shards: cfg.Shards})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, e := range events {
		if err := ref.Apply(e); err != nil {
			return nil, err
		}
	}
	if err := ref.Drain(); err != nil {
		return nil, err
	}
	rep.InProcessMS = float64(time.Since(start).Microseconds()) / 1e3
	wantScalar := ref.Result()
	wantGroups := ref.ResultGrouped()
	if err := ref.Close(); err != nil {
		return nil, err
	}

	for _, conns := range cfg.Conns {
		var p *WirePoint
		// One timed repetition: fresh server, fresh client pool, full replay.
		point := func() (float64, error) {
			wp, err := wirePoint(events, cfg, conns, wantScalar, wantGroups)
			if err != nil {
				return 0, err
			}
			p = wp
			return wp.IngestMS, nil
		}
		dist, err := measure(cfg.Warmup, cfg.Iters, point)
		if err != nil {
			return nil, err
		}
		p.IngestDist = dist
		p.IngestMS = dist.Mean
		p.EventsPerSec = float64(len(events)) / (dist.Mean / 1e3)
		rep.Points = append(rep.Points, *p)
	}
	return rep, nil
}

// wirePoint measures one pool size against a fresh server.
func wirePoint(events []engine.Event, cfg WireConfig, conns int, wantScalar float64, wantGroups []engine.GroupResult) (*WirePoint, error) {
	_, _, addr, stop, err := vwapServer(cfg.Shards)
	if err != nil {
		return nil, err
	}
	defer stop()

	var mu sync.Mutex
	var lats []time.Duration
	c, err := client.Dial(addr, client.Options{
		Conns:       conns,
		BatchSize:   cfg.BatchSize,
		MaxInFlight: cfg.MaxInFlight,
		Route:       func(e engine.Event) int { return int(e.Tuple["sym"]) },
		OnBatchAck: func(d time.Duration) {
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	start := time.Now()
	for _, e := range events {
		if err := c.Apply(e); err != nil {
			return nil, err
		}
	}
	if err := c.Drain(); err != nil {
		return nil, err
	}
	ingest := time.Since(start)

	gotScalar, err := c.Result()
	if err != nil {
		return nil, err
	}
	gotGroups, err := c.ResultGrouped()
	if err != nil {
		return nil, err
	}
	matches := gotScalar == wantScalar && len(gotGroups) == len(wantGroups)
	if matches {
		for i := range gotGroups {
			if gotGroups[i].Value != wantGroups[i].Value || gotGroups[i].Key[0] != wantGroups[i].Key[0] {
				matches = false
				break
			}
		}
	}
	if !matches {
		return nil, fmt.Errorf("bench: wire results diverged at %d conns: networked %g vs in-process %g",
			conns, gotScalar, wantScalar)
	}
	st, err := c.Stats()
	if err != nil {
		return nil, err
	}

	mu.Lock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := percentile(lats, 0.50)
	p99 := percentile(lats, 0.99)
	batches := len(lats)
	mu.Unlock()

	return &WirePoint{
		Conns:         conns,
		IngestMS:      float64(ingest.Microseconds()) / 1e3,
		EventsPerSec:  float64(len(events)) / ingest.Seconds(),
		Batches:       batches,
		BatchP50US:    float64(p50.Nanoseconds()) / 1e3,
		BatchP99US:    float64(p99.Nanoseconds()) / 1e3,
		Shed:          st.Server.Shed,
		Result:        gotScalar,
		ResultMatches: true,
	}, nil
}

// WireJSON serializes the report for BENCH_wire.json.
func WireJSON(rep *WireReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FormatWire renders the report as an aligned text table.
func FormatWire(rep *WireReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "networked serving over loopback TCP (%d events, %d partitions, %d shards, batch %d)\n",
		rep.Config.Events, rep.Config.Partitions, rep.Config.Shards, rep.Config.BatchSize)
	fmt.Fprintf(&b, "  in-process baseline: %.1f ms (%.0f events/s); all networked results bit-identical\n",
		rep.InProcessMS, float64(rep.Config.Events)/(rep.InProcessMS/1e3))
	fmt.Fprintf(&b, "  %-6s %12s %14s %10s %12s %12s\n",
		"conns", "ingest (ms)", "events/s", "batches", "p50 (us)", "p99 (us)")
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "  %-6d %12.1f %14.0f %10d %12.0f %12.0f\n",
			p.Conns, p.IngestMS, p.EventsPerSec, p.Batches, p.BatchP50US, p.BatchP99US)
	}
	return b.String()
}
