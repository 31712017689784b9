// Command rpaiserver is the network daemon of the serving layer: it hosts a
// multi-query catalog (internal/catalog) — every registered nested-aggregate
// query maintained incrementally per partition, one shared ingest stream
// fanned out to all of them — and speaks the wire protocol of internal/wire
// over TCP: batched applies with exactly-once sessions, drain barriers,
// runtime registration, EXPLAIN, QueryID-routed reads and push
// subscriptions, stats, and checkpoint triggers. A single query is simply a
// catalog with one registration.
//
// Every -register SQL is registered at boot (idempotent across restarts);
// clients register and unregister more at runtime. With -data the catalog
// is durable: the registrations persist in a manifest, every applied batch
// is logged once to a shared WAL, and a restart recovers every query before
// accepting connections.
//
// With -replica the daemon is a read replica instead: it follows a primary's
// catalog data directory — booting from the CATALOG manifest and the
// snapshots it names, tailing the shared WAL, and picking up the primary's
// checkpoints and runtime registrations from the manifest — and serves reads
// and subscriptions while shedding every write (register and unregister
// included) with CodeReadOnly. The directory must be shared with (or
// mirrored from) the primary.
//
// Usage:
//
//	rpaiserver -addr :7411 -partition sym -data /var/lib/rpai \
//	  -register "SELECT Sum(b.price * b.volume) FROM bids b WHERE 0.75 * (SELECT Sum(b1.volume) FROM bids b1) < (SELECT Sum(b2.volume) FROM bids b2 WHERE b2.price <= b.price)"
//
//	rpaiserver -addr :7412 -replica /var/lib/rpai
//
// -catalog is accepted and ignored: every daemon hosts a catalog.
//
// Clients connect with internal/wire/client, or any implementation of the
// framing in DESIGN.md section 5d.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"rpai/internal/catalog"
	"rpai/internal/sqlparse"
	"rpai/internal/wire"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7411", "TCP listen address")
		partition   = flag.String("partition", "", "comma-separated partition key columns (required unless -replica)")
		shards      = flag.Int("shards", 0, "shard worker count per state set (0: serve default)")
		queueLen    = flag.Int("queue", 0, "per-shard queue length (0: serve default)")
		batch       = flag.Int("batch", 0, "per-shard apply batch size (0: serve default)")
		dataDir     = flag.String("data", "", "catalog data directory; enables durability and boot-time recovery")
		replicaDir  = flag.String("replica", "", "serve as a read replica following this primary catalog data directory (sheds writes)")
		replicaPoll = flag.Duration("replica-poll", 0, "replica manifest and WAL polling interval (0: catalog default)")
		maxInFlight = flag.Int("max-inflight", 0, "admission limit for in-flight work requests (0: wire default)")
		perConn     = flag.Int("per-conn", 0, "pipelined requests buffered per connection (0: wire default)")
		idleTimeout = flag.Duration("idle-timeout", 0, "per-frame read deadline (0: wire default)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty: off)")
		_           = flag.Bool("catalog", false, "accepted for compatibility; every daemon hosts a catalog")
	)
	var registers multiFlag
	flag.Var(&registers, "register", "register this SQL query at boot (repeatable)")
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			// The default mux already carries the /debug/pprof handlers via
			// the side-effect import. Failure to bind is non-fatal: profiling
			// is diagnostics, not service.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rpaiserver: pprof:", err)
			}
		}()
	}

	var partitionBy []string
	for _, c := range strings.Split(*partition, ",") {
		if c = strings.TrimSpace(c); c != "" {
			partitionBy = append(partitionBy, c)
		}
	}
	switch {
	case *replicaDir != "" && (*dataDir != "" || len(registers) > 0):
		usage("-replica follows a primary's directory read-only; it takes neither -data nor -register")
	case *replicaDir == "" && len(partitionBy) == 0:
		usage("-partition is required (e.g. -partition sym)")
	}
	opt := catalog.Options{
		PartitionBy: partitionBy,
		Shards:      *shards,
		QueueLen:    *queueLen,
		BatchSize:   *batch,
		Dir:         *dataDir,
	}

	var cat *catalog.Service
	var err error
	switch {
	case *replicaDir != "":
		opt.Dir = *replicaDir
		if cat, err = catalog.OpenReplica(opt, *replicaPoll); err != nil {
			fatal(fmt.Errorf("replicating %s: %w", *replicaDir, err))
		}
		fmt.Printf("rpaiserver: read replica following %s (%d queries)\n", *replicaDir, cat.Len())
	case opt.Dir != "" && exists(filepath.Join(opt.Dir, "CATALOG")):
		if cat, err = catalog.Recover(opt); err != nil {
			fatal(fmt.Errorf("recovering catalog from %s: %w", opt.Dir, err))
		}
		fmt.Printf("rpaiserver: recovered catalog from %s (%d queries)\n", opt.Dir, cat.Len())
	default:
		if cat, err = catalog.New(opt); err != nil {
			fatal(err)
		}
	}
	registerBoot(cat, registers)

	srv := wire.NewCatalogServer(cat, wire.ServerConfig{
		MaxInFlight:  *maxInFlight,
		PerConnQueue: *perConn,
		IdleTimeout:  *idleTimeout,
		Query:        "catalog",
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rpaiserver: catalog serving %d queries\n  partition by %v, %d shards, listening on %s\n",
		cat.Len(), cat.PartitionBy(), cat.Shards(), ln.Addr())

	// Graceful shutdown: stop the front door first (in-flight replies still
	// flush), then drain the state sets and close the catalog to flush the
	// WAL. A replica's sticky follow error surfaces through Close.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case sig := <-sigc:
		fmt.Printf("rpaiserver: %v, shutting down\n", sig)
		srv.Close()
		if err := <-done; err != nil {
			fatal(err)
		}
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
	if err := cat.DrainAll(); err != nil {
		fatal(err)
	}
	if err := cat.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("rpaiserver: clean shutdown")
}

// registerBoot registers the -register queries. It is idempotent across
// restarts: a query whose canonical form is already in the recovered
// manifest is kept, not registered again as a duplicate.
func registerBoot(cat *catalog.Service, registers []string) {
	recovered := make(map[string]catalog.QueryID)
	for _, ex := range cat.List() {
		recovered[ex.Canonical] = ex.ID
	}
	for _, sql := range registers {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			fatal(fmt.Errorf("registering %q: %w", sql, err))
		}
		if id, ok := recovered[q.String()]; ok {
			fmt.Printf("rpaiserver: query %d already registered (recovered)\n", id)
			continue
		}
		id, ex, err := cat.Register(sql)
		if err != nil {
			fatal(fmt.Errorf("registering %q: %w", sql, err))
		}
		recovered[ex.Canonical] = id
		shared := ""
		if len(ex.SharedWith) > 0 {
			shared = fmt.Sprintf(", sharing indexes with %v", ex.SharedWith)
		}
		fmt.Printf("rpaiserver: query %d registered (%s/%s%s)\n", id, ex.Strategy, ex.IndexKind, shared)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return !errors.Is(err, os.ErrNotExist)
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "rpaiserver:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpaiserver:", err)
	os.Exit(1)
}
