package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/sqlparse"
	"rpai/internal/wire"
	"rpai/internal/wire/client"
)

// phase is one stretch of the run's event sequence: slots events with a
// marker in every markerEvery-th slot. The reference replays the phases.
type phase struct {
	slots, markerEvery int
}

// ops counts operations attempted and failed across a run.
type ops struct {
	attempted, failed atomic.Int64
}

func (o *ops) add(attempted, failed int) {
	o.attempted.Add(int64(attempted))
	o.failed.Add(int64(failed))
}

// ingestClient dials the generator's ingest pool, routed by partition so
// per-partition order is preserved.
func ingestClient(addr string, conns int, onAck func(time.Duration)) (*client.Client, error) {
	return client.Dial(addr, client.Options{
		Conns:      conns,
		Route:      func(e engine.Event) int { return int(e.Tuple["sym"]) },
		OnBatchAck: onAck,
	})
}

// closedLoop sends the stream as fast as the pipelined client admits it
// until the deadline, then drains. It returns the events acked and the time
// from the first send to the end of the drain.
func closedLoop(c *client.Client, s *stream, dur time.Duration, tr *tracer) (int, time.Duration, error) {
	t := query.Tuple{}
	start := time.Now()
	n := 0
	for {
		cs := tr.begin()
		for i := 0; i < 1024; i++ {
			e, _ := s.next()
			if err := c.Apply(e.fill(t)); err != nil {
				return n, 0, err
			}
		}
		n += 1024
		tr.end("run", "client.Apply", 0, cs, 1024)
		if time.Since(start) >= dur {
			break
		}
	}
	ds := tr.begin()
	err := c.Drain()
	tr.end("run", "client.Drain", 0, ds, n)
	return n, time.Since(start), err
}

// markerBook maps the subscribed query's marker-group value back to the
// marker that produced it, and keeps each marker's due time.
type markerBook struct {
	index map[uint64]int
	due   []atomic.Int64 // ns since t0; 0 = not yet scheduled
}

// newMarkerBook runs the subscribed query over the marker partition alone
// (partitions are independent, so this is the group's exact value after
// each marker).
func newMarkerBook(sql string, n int) (*markerBook, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	ex, err := engine.New(q)
	if err != nil {
		return nil, err
	}
	b := &markerBook{index: make(map[uint64]int, n), due: make([]atomic.Int64, n)}
	for k := 0; k < n; k++ {
		ex.Apply(markerEv(k).event())
		bits := math.Float64bits(ex.Result())
		if _, dup := b.index[bits]; dup {
			return nil, fmt.Errorf("marker %d repeats an earlier marker-group value", k)
		}
		b.index[bits] = k
	}
	return b, nil
}

// observed returns the newest marker a frame shows, or -1.
func (b *markerBook) observed(groups []engine.GroupResult) int {
	k := -1
	for _, g := range groups {
		if len(g.Key) == 1 && g.Key[0] == markerSym {
			if m, ok := b.index[math.Float64bits(g.Value)]; ok && m > k {
				k = m
			}
		}
	}
	return k
}

// pacedResult is what an open-loop phase measured.
type pacedResult struct {
	sent       int
	elapsed    time.Duration // first due time to the end of the drain
	markers    int           // markers sent
	visible    []float64     // ms from due time to a subscriber's receipt
	reads      []float64     // µs per pull read
	lag        []float64     // ms the generator ran behind schedule
	frames     int
	rateShort  bool
	fellBehind bool
	unobserved int
}

// readPause is the pull reader's pause between reads, so it polls without
// becoming a second saturating client; sendEvery is the open-loop sender's
// shortest sleep.
const (
	readPause = 200 * time.Microsecond
	sendEvery = 200 * time.Microsecond
)

// Generator honesty limits: a paced phase whose generator ran later than
// this at its 99th percentile, or that achieved less than this share of its
// target rate, measured the generator rather than the system.
const (
	maxLagP99   = 10 * time.Millisecond
	minRateFrac = 0.98
)

// pacedConfig shapes one open-loop phase.
type pacedConfig struct {
	rate        float64 // events due per second
	dur         time.Duration
	subscribers int
	// flushEach seals every event (the idle probe); otherwise markers ride
	// the client's normal batching.
	flushEach bool
	// reads runs the pull reader during the phase.
	reads bool
}

// pollReads reads the query every readPause until stop closes and returns
// the sorted round-trip times in µs.
func pollReads(rc *client.Client, qid catalog.QueryID, stop <-chan struct{}, o *ops, tr *tracer) []float64 {
	var reads dist
	for {
		select {
		case <-stop:
			return reads.sorted()
		default:
		}
		rs := tr.begin()
		t := time.Now()
		_, err := rc.ResultQuery(qid)
		tr.end("run", "client.ResultQuery", 0, rs, 1)
		if err != nil {
			o.add(1, 1)
		} else {
			o.add(1, 0)
			reads.add(float64(time.Since(t)) / 1e3)
		}
		time.Sleep(readPause)
	}
}

// readPhase polls the query alone for dur on its own connection.
func readPhase(addr string, qid catalog.QueryID, dur time.Duration, o *ops, tr *tracer) ([]float64, error) {
	rc, err := client.Dial(addr, client.Options{})
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	return pollReads(rc, qid, stop, o, tr), nil
}

// paced runs an open loop: events are due at t0 + i/rate whether or not the
// system keeps up, latency counts from the due time, subscribers watch the
// marker group and a pull reader polls the first query.
func paced(addr string, ing *client.Client, s *stream, book *markerBook, qid catalog.QueryID,
	cfg pacedConfig, o *ops, tr *tracer) (pacedResult, error) {
	rate, dur, subscribers := cfg.rate, cfg.dur, cfg.subscribers
	var res pacedResult
	rc, err := client.Dial(addr, client.Options{})
	if err != nil {
		return res, err
	}
	defer rc.Close()

	// Subscribers split the real partitions between them and all watch the
	// marker group.
	var subs []*client.Subscription
	defer func() {
		for _, sub := range subs {
			sub.Close()
		}
	}()
	for j := 0; j < subscribers; j++ {
		keys := [][]float64{{markerSym}}
		for p := j; p < partitions; p += subscribers {
			keys = append(keys, []float64{float64(p)})
		}
		sub, err := rc.SubscribeQuery(qid, client.SubOptions{Keys: keys, Buffer: 256})
		if err != nil {
			return res, fmt.Errorf("subscribe: %w", err)
		}
		subs = append(subs, sub)
	}
	first := s.markers
	total := int(rate * dur.Seconds())
	lastMarker := -1
	var visible dist
	var frames atomic.Int64
	seen := make([]atomic.Int64, subscribers)
	t0 := time.Now()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for j, sub := range subs {
		seen[j].Store(int64(first - 1))
		wg.Add(1)
		go func(j int, sub *client.Subscription) {
			defer wg.Done()
			for f := range sub.Frames() {
				now := int64(time.Since(t0))
				frames.Add(1)
				k := book.observed(f.Groups)
				if prev := int(seen[j].Load()); k > prev {
					for m := prev + 1; m <= k; m++ {
						if d := book.due[m].Load(); d != 0 {
							visible.add(float64(now-d) / 1e6)
						}
					}
					seen[j].Store(int64(k))
				}
			}
		}(j, sub)
	}

	// The pull reader, beside the load when the phase has one.
	var reads []float64
	if cfg.reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads = pollReads(rc, qid, stop, o, tr)
		}()
	}

	// The open-loop sender.
	tup := query.Tuple{}
	var lag dist
	i := 0
	var sendErr error
	for i < total && sendErr == nil {
		now := time.Since(t0)
		dueN := int(now.Seconds()*rate) + 1
		if dueN > total {
			dueN = total
		}
		if i >= dueN {
			// Send in chunks of at least sendEvery: sleeping until every
			// single due time would spend the generator's CPU on timer
			// wake-ups. Latency still counts from each event's due time.
			time.Sleep(max(time.Duration(float64(i)/rate*1e9)-now, sendEvery))
			continue
		}
		lag.add(float64(now-time.Duration(float64(i)/rate*1e9)) / 1e6)
		cs := tr.begin()
		n := dueN - i
		for ; i < dueN; i++ {
			e, mk := s.next()
			if mk >= 0 {
				book.due[mk].Store(int64(float64(i)/rate*1e9) + 1)
				lastMarker = mk
			}
			if sendErr = ing.Apply(e.fill(tup)); sendErr != nil {
				break
			}
			if cfg.flushEach {
				if sendErr = ing.Flush(); sendErr != nil {
					break
				}
			}
		}
		tr.end("run", "client.Apply", 0, cs, n)
	}
	lastSend := time.Since(t0)
	res.sent = i
	if sendErr == nil {
		ds := tr.begin()
		sendErr = ing.Drain()
		tr.end("run", "client.Drain", 0, ds, i)
	}
	res.elapsed = time.Since(t0)
	res.markers = s.markers - first

	// Every subscriber must see the last marker; give the push path a grace
	// period after the drain.
	want := lastMarker
	deadline := time.Now().Add(5 * time.Second)
	for want >= 0 && time.Now().Before(deadline) {
		all := true
		for j := range seen {
			if int(seen[j].Load()) < want {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, sub := range subs {
		if err := sub.Err(); err != nil && !errors.Is(err, client.ErrClientClosed) {
			o.add(0, 1)
		}
		sub.Close()
	}
	close(stop)
	wg.Wait()
	subs = nil
	for j := range seen {
		if missed := want - int(seen[j].Load()); missed > 0 {
			res.unobserved += missed
		}
	}
	res.visible = visible.sorted()
	res.reads = reads
	res.lag = lag.sorted()
	res.frames = int(frames.Load())
	achieved := float64(res.sent) / math.Max(lastSend.Seconds(), dur.Seconds())
	res.rateShort = res.sent < total || achieved < minRateFrac*rate
	res.fellBehind = len(res.lag) > 0 && quantile(res.lag, 0.99) > float64(maxLagP99)/1e6
	o.add(res.markers*subscribers, res.unobserved)
	return res, sendErr
}

// serverCounters is the slice of the daemon's stats the per-layer report
// uses.
type serverCounters struct {
	accepted, shed, applied, flushed, waitNS uint64
}

func readCounters(c *client.Client) (serverCounters, error) {
	st, err := c.Stats()
	if err != nil {
		return serverCounters{}, err
	}
	return countersOf(st), nil
}

func countersOf(st wire.Stats) serverCounters {
	sc := serverCounters{accepted: st.Server.Accepted, shed: st.Server.Shed}
	for _, sh := range st.Shards {
		sc.applied += sh.Applied
		sc.flushed += sh.Flushed
		sc.waitNS += sh.EnqueueWaitNS
	}
	return sc
}

func (a serverCounters) sub(b serverCounters) serverCounters {
	return serverCounters{a.accepted - b.accepted, a.shed - b.shed, a.applied - b.applied, a.flushed - b.flushed, a.waitNS - b.waitNS}
}
