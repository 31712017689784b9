package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpai/internal/engine"
	"rpai/internal/serve"
	"rpai/internal/wire/client"
)

// FanoutConfig parameterizes the read fan-out experiment: the partitioned
// VWAP workload ingested over the wire while N readers track the grouped
// results, once via server-push delta subscriptions and once via pull
// polling. The experiment measures fresh-result observation throughput —
// how many distinct result states per second the reader population actually
// sees — which is the quantity a subscription exists to maximize. Push
// delivers every publication as a delta frame sized to what changed; pull
// re-reads the full grouped result per poll and pays a consistency barrier
// on the server for each one, so its observation rate collapses as readers
// are added.
type FanoutConfig struct {
	Events      int   `json:"events"`      // trace length
	Partitions  int   `json:"partitions"`  // distinct partition keys (grouped-result width)
	Shards      int   `json:"shards"`      // server-side shard count
	Subscribers []int `json:"subscribers"` // reader counts to sweep
	BatchSize   int   `json:"batch_size"`  // writer client batch size
	SubBuffer   int   `json:"sub_buffer"`  // per-subscriber frame buffer
	Seed        int64 `json:"seed"`
}

// DefaultFanout returns the scales used for BENCH_fanout.json.
func DefaultFanout() FanoutConfig {
	return FanoutConfig{
		Events:      30000,
		Partitions:  2048,
		Shards:      4,
		Subscribers: []int{1, 16, 64},
		BatchSize:   128,
		SubBuffer:   256,
		Seed:        1,
	}
}

// QuickFanout shrinks the sweep for a CI smoke run while keeping the
// 64-reader point, where the push/pull gap is the claim under test.
func QuickFanout() FanoutConfig {
	return FanoutConfig{
		Events:      6000,
		Partitions:  512,
		Shards:      2,
		Subscribers: []int{1, 64},
		BatchSize:   64,
		SubBuffer:   256,
		Seed:        1,
	}
}

// FanoutPoint is one measured reader count: the same trace run in push mode
// and in pull mode against fresh servers.
type FanoutPoint struct {
	Subscribers int `json:"subscribers"`

	// Push mode: each reader holds a delta subscription and folds frames
	// into a serve.View. An observation is one applied frame — one fresh
	// result state. Elapsed runs from first apply until every view has
	// caught up to the drained shard versions.
	PushIngestMS  float64 `json:"push_ingest_ms"`
	PushElapsedMS float64 `json:"push_elapsed_ms"`
	PushFrames    uint64  `json:"push_frames"`
	PushObsPerSec float64 `json:"push_obs_per_sec"`

	// Pull mode: each reader free-runs ResultGrouped and an observation is
	// a poll whose result differs from the reader's previous one — the
	// best case for polling, with no think time. Elapsed runs from first
	// apply until every reader has observed the drained final result.
	PullIngestMS  float64 `json:"pull_ingest_ms"`
	PullElapsedMS float64 `json:"pull_elapsed_ms"`
	PullPolls     uint64  `json:"pull_polls"`
	PullFresh     uint64  `json:"pull_fresh"`
	PullObsPerSec float64 `json:"pull_obs_per_sec"`

	// Ratio is push observations/sec over pull observations/sec.
	Ratio float64 `json:"ratio"`
	// Identical records that every subscriber view and every reader's
	// final pulled result matched the server's grouped results bit for
	// bit; the run fails otherwise.
	Identical bool `json:"identical"`
}

// FanoutReport is the full experiment output serialized to BENCH_fanout.json.
type FanoutReport struct {
	Header
	Config FanoutConfig  `json:"config"`
	Points []FanoutPoint `json:"points"`
}

// Fanout runs the push-versus-pull sweep. Every reader's reconstructed or
// final pulled state must be bit-identical to the server's grouped results
// — the same replay-equals-pull contract the subscription tests enforce,
// checked on the benchmark's own runs.
func Fanout(cfg FanoutConfig) (*FanoutReport, error) {
	if len(cfg.Subscribers) == 0 {
		cfg.Subscribers = []int{1}
	}
	if cfg.SubBuffer <= 0 {
		cfg.SubBuffer = 256
	}
	rep := &FanoutReport{Header: NewHeader("fanout", 1), Config: cfg}
	events := vwapEvents(cfg.Seed, cfg.Events, cfg.Partitions)
	for _, n := range cfg.Subscribers {
		p := FanoutPoint{Subscribers: n}
		if err := fanoutPush(events, cfg, n, &p); err != nil {
			return nil, fmt.Errorf("bench: fanout push at %d readers: %w", n, err)
		}
		if err := fanoutPull(events, cfg, n, &p); err != nil {
			return nil, fmt.Errorf("bench: fanout pull at %d readers: %w", n, err)
		}
		if p.PullObsPerSec > 0 {
			p.Ratio = p.PushObsPerSec / p.PullObsPerSec
		}
		p.Identical = true // a mismatch errored out above
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// fanoutWriter streams the trace through a pipelined client and drains.
func fanoutWriter(addr string, cfg FanoutConfig, events []engine.Event) (time.Duration, error) {
	c, err := client.Dial(addr, client.Options{
		BatchSize: cfg.BatchSize,
		Route:     func(e engine.Event) int { return int(e.Tuple["sym"]) },
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	start := time.Now()
	for _, e := range events {
		if err := c.Apply(e); err != nil {
			return 0, err
		}
	}
	if err := c.Drain(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// fanoutSub is one push reader: a dedicated client, its subscription, and
// the view its consumer goroutine folds frames into.
type fanoutSub struct {
	c      *client.Client
	sub    *client.Subscription
	view   *serve.View
	mu     sync.Mutex
	frames uint64
	err    error
	done   chan struct{}
}

func (s *fanoutSub) consume() {
	defer close(s.done)
	for f := range s.sub.Frames() {
		s.mu.Lock()
		if err := s.view.Apply(f); err != nil && s.err == nil {
			s.err = err
		}
		s.frames++
		s.mu.Unlock()
	}
}

// caughtUp reports whether the view has reached every target shard version.
func (s *fanoutSub) caughtUp(target []serve.ShardVersion) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return false, s.err
	}
	got := make(map[int]uint64, len(target))
	for _, sv := range s.view.Versions() {
		got[sv.Shard] = sv.Version
	}
	for _, sv := range target {
		if got[sv.Shard] < sv.Version {
			return false, nil
		}
	}
	return true, nil
}

func fanoutPush(events []engine.Event, cfg FanoutConfig, n int, p *FanoutPoint) error {
	cat, id, addr, stop, err := vwapServer(cfg.Shards)
	if err != nil {
		return err
	}
	defer stop()

	subs := make([]*fanoutSub, n)
	for i := range subs {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			return err
		}
		defer c.Close()
		sub, err := c.Subscribe(client.SubOptions{Buffer: cfg.SubBuffer})
		if err != nil {
			return err
		}
		defer sub.Close()
		s := &fanoutSub{c: c, sub: sub, view: serve.NewView(), done: make(chan struct{})}
		subs[i] = s
		go s.consume()
	}

	start := time.Now()
	ingest, err := fanoutWriter(addr, cfg, events)
	if err != nil {
		return err
	}
	target, err := cat.ShardVersions(id)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		all := true
		for _, s := range subs {
			ok, err := s.caughtUp(target)
			if err != nil {
				return err
			}
			if !ok {
				all = false
				break
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("views never caught up to %v", target)
		}
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)

	want, err := cat.ResultGrouped(id)
	if err != nil {
		return err
	}
	var frames uint64
	for i, s := range subs {
		s.mu.Lock()
		got := s.view.Grouped()
		frames += s.frames
		s.mu.Unlock()
		if !groupsBitIdentical(got, want) {
			return fmt.Errorf("subscriber %d view diverged from server results", i)
		}
	}
	p.PushIngestMS = float64(ingest.Microseconds()) / 1e3
	p.PushElapsedMS = float64(elapsed.Microseconds()) / 1e3
	p.PushFrames = frames
	p.PushObsPerSec = float64(frames) / elapsed.Seconds()
	return nil
}

// fanoutPoller is one pull reader: it free-runs ResultGrouped and counts
// polls whose result differs from its previous one.
type fanoutPoller struct {
	polls  atomic.Uint64
	fresh  atomic.Uint64
	lastFP atomic.Uint64
	mu     sync.Mutex
	last   []engine.GroupResult
	err    error
	done   chan struct{}
}

func (pl *fanoutPoller) run(c *client.Client, stop <-chan struct{}) {
	defer close(pl.done)
	var prev uint64
	for {
		select {
		case <-stop:
			return
		default:
		}
		gs, err := c.ResultGrouped()
		if err != nil {
			pl.mu.Lock()
			if pl.err == nil {
				pl.err = err
			}
			pl.mu.Unlock()
			return
		}
		pl.polls.Add(1)
		if fp := groupsFingerprint(gs); fp != prev {
			prev = fp
			pl.fresh.Add(1)
			pl.lastFP.Store(fp)
			pl.mu.Lock()
			pl.last = gs
			pl.mu.Unlock()
		}
	}
}

func fanoutPull(events []engine.Event, cfg FanoutConfig, n int, p *FanoutPoint) error {
	cat, id, addr, stop, err := vwapServer(cfg.Shards)
	if err != nil {
		return err
	}
	defer stop()

	quit := make(chan struct{})
	pollers := make([]*fanoutPoller, n)
	for i := range pollers {
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			close(quit)
			return err
		}
		defer c.Close()
		pl := &fanoutPoller{done: make(chan struct{})}
		pollers[i] = pl
		go pl.run(c, quit)
	}

	start := time.Now()
	ingest, err := fanoutWriter(addr, cfg, events)
	if err != nil {
		close(quit)
		return err
	}
	want, err := cat.ResultGrouped(id)
	if err != nil {
		close(quit)
		return err
	}
	wantFP := groupsFingerprint(want)
	deadline := time.Now().Add(60 * time.Second)
	for {
		all := true
		for _, pl := range pollers {
			pl.mu.Lock()
			err := pl.err
			pl.mu.Unlock()
			if err != nil {
				close(quit)
				return err
			}
			if pl.lastFP.Load() != wantFP {
				all = false
				break
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			close(quit)
			return fmt.Errorf("pollers never observed the final result")
		}
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	close(quit)

	var polls, fresh uint64
	for i, pl := range pollers {
		<-pl.done
		polls += pl.polls.Load()
		fresh += pl.fresh.Load()
		pl.mu.Lock()
		got := pl.last
		pl.mu.Unlock()
		if !groupsBitIdentical(got, want) {
			return fmt.Errorf("poller %d final result diverged from server", i)
		}
	}
	p.PullIngestMS = float64(ingest.Microseconds()) / 1e3
	p.PullElapsedMS = float64(elapsed.Microseconds()) / 1e3
	p.PullPolls = polls
	p.PullFresh = fresh
	p.PullObsPerSec = float64(fresh) / elapsed.Seconds()
	return nil
}

// groupsFingerprint hashes a grouped result's exact bit pattern (FNV-1a over
// Float64bits), so "the result changed" is detected at the same bit-for-bit
// granularity the equality checks use.
func groupsFingerprint(gs []engine.GroupResult) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(len(gs)))
	for _, g := range gs {
		for _, k := range g.Key {
			mix(math.Float64bits(k))
		}
		mix(math.Float64bits(g.Value))
	}
	return h
}

func groupsBitIdentical(a, b []engine.GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) {
			return false
		}
		for j := range a[i].Key {
			if math.Float64bits(a[i].Key[j]) != math.Float64bits(b[i].Key[j]) {
				return false
			}
		}
		if math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// FanoutJSON serializes the report for BENCH_fanout.json.
func FanoutJSON(rep *FanoutReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FormatFanout renders the report as an aligned text table.
func FormatFanout(rep *FanoutReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "read fan-out: delta push vs pull polling (%d events, %d partitions, %d shards, batch %d)\n",
		rep.Config.Events, rep.Config.Partitions, rep.Config.Shards, rep.Config.BatchSize)
	fmt.Fprintf(&b, "  %-8s %14s %14s %12s %14s %14s %8s\n",
		"readers", "push obs/s", "pull obs/s", "pull polls", "push ing(ms)", "pull ing(ms)", "ratio")
	for _, p := range rep.Points {
		fmt.Fprintf(&b, "  %-8d %14.0f %14.0f %12d %14.1f %14.1f %7.1fx\n",
			p.Subscribers, p.PushObsPerSec, p.PullObsPerSec, p.PullPolls,
			p.PushIngestMS, p.PullIngestMS, p.Ratio)
	}
	return b.String()
}
