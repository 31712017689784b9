package wire

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/serve"
)

// vwapSpec is Example 2.2, the per-partition query of the serving tests.
func vwapSpec() *query.Query {
	return &query.Query{
		Agg: query.Mul(query.Col("price"), query.Col("volume")),
		Preds: []query.Predicate{{
			Left: query.ValSub(0.75, &query.Subquery{Kind: query.Sum, Of: query.Col("volume")}),
			Op:   query.Lt,
			Right: query.ValSub(1, &query.Subquery{
				Kind:  query.Sum,
				Of:    query.Col("volume"),
				Where: &query.CorrPred{Inner: query.Col("price"), Op: query.Le, Outer: query.Col("price")},
			}),
		}},
	}
}

// symEvents generates an insert/delete trace over "sym"-keyed partitions.
func symEvents(seed int64, n, partitions int) []engine.Event {
	rng := rand.New(rand.NewSource(seed))
	var live []query.Tuple
	out := make([]engine.Event, 0, n)
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Float64() < 0.25 {
			j := rng.Intn(len(live))
			out = append(out, engine.Delete(live[j]))
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		t := query.Tuple{
			"sym":    float64(rng.Intn(partitions)),
			"price":  float64(rng.Intn(30) + 1),
			"volume": float64(rng.Intn(20) + 1),
		}
		live = append(live, t)
		out = append(out, engine.Insert(t))
	}
	return out
}

// oneQuery is a test server's registered VWAP query, read in-process for
// comparison with the networked results.
type oneQuery struct {
	t   *testing.T
	cat *catalog.Service
	id  catalog.QueryID
}

func (q oneQuery) Result() float64 {
	q.t.Helper()
	v, err := q.cat.Result(q.id)
	if err != nil {
		q.t.Fatal(err)
	}
	return v
}

func (q oneQuery) ResultGrouped() []engine.GroupResult {
	q.t.Helper()
	g, err := q.cat.ResultGrouped(q.id)
	if err != nil {
		q.t.Fatal(err)
	}
	return g
}

func (q oneQuery) ShardVersions() []serve.ShardVersion {
	q.t.Helper()
	sv, err := q.cat.ShardVersions(q.id)
	if err != nil {
		q.t.Fatal(err)
	}
	return sv
}

// startVWAP boots a Server over a catalog holding the one VWAP query (the
// daemon's single-query deployment) and returns its address and the query.
// opt.PartitionBy defaults to sym.
func startVWAP(t *testing.T, opt catalog.Options, cfg ServerConfig) (string, oneQuery) {
	t.Helper()
	if opt.PartitionBy == nil {
		opt.PartitionBy = []string{"sym"}
	}
	cat, err := catalog.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := cat.Register(catSQLVWAP)
	if err != nil {
		t.Fatal(err)
	}
	return startCatalogServer(t, cat, cfg), oneQuery{t: t, cat: cat, id: id}
}

// rawConn is a frame-level test client: no pipelining, no reconnects, so the
// tests control exactly what goes on the wire.
type rawConn struct {
	t      *testing.T
	nc     net.Conn
	nextID uint64
}

// dialRaw connects and completes the handshake at Version.
func dialRaw(t *testing.T, addr string, session byte) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	rc := &rawConn{t: t, nc: nc}
	var sess [SessionIDLen]byte
	sess[0] = session
	rc.send(MsgHello, EncodeHello(nil, Hello{Version: Version, Session: sess}))
	tp, _, body := rc.recv()
	if tp != MsgWelcome {
		t.Fatalf("handshake reply %s, want welcome", tp)
	}
	w, err := DecodeWelcome(body)
	if err != nil {
		t.Fatal(err)
	}
	if w.Version != Version {
		t.Fatalf("welcome carries version %d, want %d", w.Version, Version)
	}
	return rc
}

func (rc *rawConn) send(t MsgType, body []byte) uint64 {
	rc.t.Helper()
	id := rc.nextID
	rc.nextID++
	if err := WriteFrame(rc.nc, EncodeMsg(nil, t, id, body)); err != nil {
		rc.t.Fatal(err)
	}
	return id
}

func (rc *rawConn) recv() (MsgType, uint64, []byte) {
	rc.t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := ReadFrame(rc.nc, 0)
	if err != nil {
		rc.t.Fatal(err)
	}
	t, id, body, err := DecodeMsg(payload)
	if err != nil {
		rc.t.Fatal(err)
	}
	return t, id, body
}

// errCode asserts the next reply is a MsgError with the given code.
func (rc *rawConn) errCode(want Code) {
	rc.t.Helper()
	t, _, body := rc.recv()
	if t != MsgError {
		rc.t.Fatalf("reply %s, want error", t)
	}
	code, _, err := DecodeError(body)
	if err != nil {
		rc.t.Fatal(err)
	}
	if code != want {
		rc.t.Fatalf("error code %d, want %d", code, want)
	}
}

func encodeEvents(events []engine.Event) [][]byte {
	out := make([][]byte, len(events))
	for i, e := range events {
		out[i] = engine.EncodeEvent(nil, e)
	}
	return out
}

// TestServerRoundtrip drives the full request catalogue over one loopback
// connection to a one-query catalog and checks the networked results are
// bit-identical to an in-process single-query service fed the same trace.
func TestServerRoundtrip(t *testing.T) {
	q := vwapSpec()
	events := symEvents(11, 2000, 17)

	ref, err := serve.ForQuery(q, []string{"sym"}, serve.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, e := range events {
		if err := ref.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}

	addr, _ := startVWAP(t, catalog.Options{Shards: 4}, ServerConfig{Query: "vwap"})
	rc := dialRaw(t, addr, 1)

	// One single apply, then the rest in sequenced batches of 256.
	rc.send(MsgApply, engine.EncodeEvent(nil, events[0]))
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatalf("apply reply %s, want ack", tp)
	}
	raw := encodeEvents(events[1:])
	seq := uint64(0)
	for i := 0; i < len(raw); i += 256 {
		end := min(i+256, len(raw))
		seq++
		rc.send(MsgApplyBatch, EncodeBatch(nil, seq, raw[i:end]))
		tp, _, body := rc.recv()
		if tp != MsgAck {
			t.Fatalf("batch reply %s, want ack", tp)
		}
		if n, _ := DecodeAck(body); n != uint32(end-i) {
			t.Fatalf("batch ack %d, want %d", n, end-i)
		}
	}

	// A duplicate resend of the last batch must ack 0 without re-applying.
	last := raw[(len(raw)-1)/256*256:]
	rc.send(MsgApplyBatch, EncodeBatch(nil, seq, last))
	if tp, _, body := rc.recv(); tp != MsgAck {
		t.Fatalf("dup batch reply %s, want ack", tp)
	} else if n, _ := DecodeAck(body); n != 0 {
		t.Fatalf("dup batch ack %d, want 0", n)
	}
	// A gap must be refused.
	rc.send(MsgApplyBatch, EncodeBatch(nil, seq+2, last))
	rc.errCode(CodeSeqGap)

	rc.send(MsgDrain, nil)
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("drain not acked")
	}

	rc.send(MsgResult, nil)
	_, _, body := rc.recv()
	got, err := DecodeScalar(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Result(); got != want {
		t.Fatalf("networked Result = %v, want %v", got, want)
	}

	rc.send(MsgResultGrouped, nil)
	_, _, body = rc.recv()
	groups, err := DecodeGrouped(body)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ResultGrouped()
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(groups), len(want))
	}
	for i := range groups {
		if groups[i].Value != want[i].Value || groups[i].Key[0] != want[i].Key[0] {
			t.Fatalf("group %d = %+v, want %+v", i, groups[i], want[i])
		}
	}

	rc.send(MsgStats, nil)
	_, _, body = rc.recv()
	st, err := DecodeStats(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.ActiveConns != 1 || st.Server.Shed != 0 || len(st.Shards) != 4 || len(st.Queries) != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.Queries[0].Applied != uint64(len(events)) {
		t.Fatalf("query table reports %d applied, want %d", st.Queries[0].Applied, len(events))
	}
	var applied uint64
	for _, sh := range st.Shards {
		applied += sh.Applied
	}
	if applied != uint64(len(events)) {
		t.Fatalf("shards report %d applied, want %d", applied, len(events))
	}
}

// TestServerOverloadSheds saturates the admission limiter and asserts the
// overload contract: work is shed with CodeOverloaded, read-only requests
// still go through, and the server counts the shed requests while its
// in-flight gauge stays bounded. The wedge is a client that stops reading: its connection
// worker blocks writing a reply larger than the socket buffers, and the
// batches pipelined behind that reply keep holding their admission tokens.
func TestServerOverloadSheds(t *testing.T) {
	cat, err := catalog.New(catalog.Options{PartitionBy: []string{"sym"}})
	if err != nil {
		t.Fatal(err)
	}
	// A registration whose SQL text carries 16 MiB of whitespace makes the
	// query-list reply far larger than any loopback socket buffer.
	if _, _, err := cat.Register(catSQLVWAP + strings.Repeat(" ", 16<<20)); err != nil {
		t.Fatal(err)
	}
	srv := NewCatalogServer(cat, ServerConfig{MaxInFlight: 2, PerConnQueue: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
		cat.Close()
	})
	addr := ln.Addr().String()

	ev := engine.EncodeEvent(nil, engine.Insert(query.Tuple{"sym": 1, "price": 2, "volume": 3}))
	batch := EncodeBatch(nil, 0, [][]byte{ev})

	wedge := dialRaw(t, addr, 2)
	wedge.send(MsgListQueries, nil)
	wedge.send(MsgApplyBatch, batch)
	wedge.send(MsgApplyBatch, batch)
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().InFlight != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("limiter never saturated: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Work on connection B must now be shed immediately.
	probe := dialRaw(t, addr, 3)
	probe.send(MsgApplyBatch, batch)
	probe.errCode(CodeOverloaded)
	probe.send(MsgApply, ev)
	probe.errCode(CodeOverloaded)
	probe.send(MsgDrain, nil)
	probe.errCode(CodeOverloaded)

	// Reads bypass the limiter: the server stays observable while saturated.
	probe.send(MsgResult, nil)
	if tp, _, _ := probe.recv(); tp != MsgScalar {
		t.Fatalf("result under overload replied %s", tp)
	}
	if st := srv.Stats(); st.Shed < 3 || st.InFlight > 2 {
		t.Fatalf("stats under overload %+v, want shed >= 3 and in-flight <= 2", st)
	}

	// The client reads again: the list reply drains, the wedged batches
	// complete, and normal service resumes.
	wedge.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := ReadFrame(wedge.nc, 64<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if tp, _, _ := wedge.recv(); tp != MsgAck {
			t.Fatalf("wedged batch reply %s after the client resumed reading", tp)
		}
	}
	probe.send(MsgDrain, nil)
	if tp, _, _ := probe.recv(); tp != MsgAck {
		t.Fatal("drain after recovery not acked")
	}
}

// refusedHello sends a hello carrying version v and asserts the server
// refuses it with CodeVersion.
func refusedHello(t *testing.T, addr string, v uint32) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := EncodeHello(nil, Hello{Version: v})
	if err := WriteFrame(nc, EncodeMsg(nil, MsgHello, 0, hello)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(nc, 0)
	if err != nil {
		t.Fatal(err)
	}
	tp, _, body, err := DecodeMsg(payload)
	if err != nil || tp != MsgError {
		t.Fatalf("version %d: reply %s (err %v), want error", v, tp, err)
	}
	code, _, err := DecodeError(body)
	if err != nil || code != CodeVersion {
		t.Fatalf("version %d: code %d (err %v), want CodeVersion", v, code, err)
	}
}

// TestServerVersionMismatch pins the handshake refusal of a version newer
// than the server's.
func TestServerVersionMismatch(t *testing.T) {
	addr, _ := startVWAP(t, catalog.Options{Shards: 1}, ServerConfig{})
	refusedHello(t, addr, Version+7)
}

// TestServerHandshakeDowngrade pins that the server never downgrades: it
// speaks exactly Version, so every older version is refused with
// CodeVersion, while a hello at Version is welcomed on the same server.
func TestServerHandshakeDowngrade(t *testing.T) {
	addr, _ := startVWAP(t, catalog.Options{Shards: 1}, ServerConfig{})
	for v := uint32(0); v < Version; v++ {
		refusedHello(t, addr, v)
	}
	rc := dialRaw(t, addr, 6)
	rc.send(MsgResult, nil)
	if tp, _, _ := rc.recv(); tp != MsgScalar {
		t.Fatalf("result at version %d replied %s", Version, tp)
	}
}

// TestServerSurvivesGarbage throws corrupt and hostile bytes at the server
// and checks it tears those connections down without disturbing a well-
// behaved one.
func TestServerSurvivesGarbage(t *testing.T) {
	addr, _ := startVWAP(t, catalog.Options{Shards: 2}, ServerConfig{MaxFrame: 1 << 16})

	send := func(raw []byte) {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(raw); err != nil {
			t.Fatal(err)
		}
		// The server must close the connection, not hang or crash.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1024)
		for {
			if _, err := nc.Read(buf); err != nil {
				if errors.Is(err, io.EOF) {
					return
				}
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatal("server left garbage connection open")
				}
				return // reset is fine too
			}
		}
	}

	// Raw garbage, a hostile length prefix, a corrupted checksum, and a valid
	// frame whose payload is not a message.
	send([]byte("GET / HTTP/1.1\r\n\r\n"))
	send([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	frame := AppendFrame(nil, EncodeMsg(nil, MsgHello, 0, EncodeHello(nil, Hello{Version: Version})))
	frame[len(frame)-1] ^= 0x40
	send(frame)
	send(AppendFrame(nil, []byte{9}))

	// A well-behaved connection still gets full service.
	rc := dialRaw(t, addr, 4)
	rc.send(MsgResult, nil)
	if tp, _, _ := rc.recv(); tp != MsgScalar {
		t.Fatalf("healthy connection got %s", tp)
	}
}

// TestServerCheckpointRPC triggers a checkpoint over the wire: a durable
// catalog rotates to a new generation that a replica of its directory reads
// back bit-identically, and a catalog without a data directory refuses the
// RPC as a bad request.
func TestServerCheckpointRPC(t *testing.T) {
	dir := t.TempDir()
	events := symEvents(13, 600, 7)
	addr, _ := startVWAP(t, catalog.Options{Shards: 2, Dir: dir}, ServerConfig{})
	rc := dialRaw(t, addr, 5)
	rc.send(MsgApplyBatch, EncodeBatch(nil, 1, encodeEvents(events)))
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("batch not acked")
	}
	rc.send(MsgCheckpoint, nil)
	if tp, _, _ := rc.recv(); tp != MsgAck {
		t.Fatal("checkpoint not acked")
	}
	rc.send(MsgResult, nil)
	_, _, body := rc.recv()
	want, err := DecodeScalar(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "g2")); err != nil {
		t.Fatalf("checkpoint did not rotate to generation 2: %v", err)
	}
	rep, err := catalog.OpenReplica(catalog.Options{Dir: dir, Shards: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if got, err := rep.Result(1); err != nil || got != want {
		t.Fatalf("checkpointed Result = %v (%v), want %v", got, err, want)
	}

	memAddr, _ := startVWAP(t, catalog.Options{Shards: 1}, ServerConfig{})
	mem := dialRaw(t, memAddr, 6)
	mem.send(MsgCheckpoint, nil)
	mem.errCode(CodeBadRequest)
}
