package bench

import (
	"math/rand"
	"net"

	"rpai/internal/catalog"
	"rpai/internal/engine"
	"rpai/internal/query"
	"rpai/internal/wire"
)

// vwapSQL is the Example 2.2 VWAP decile query the serving experiments run,
// as the SQL a catalog registers; vwapQuery is the same query built
// directly.
const vwapSQL = `SELECT SUM(b.price * b.volume) FROM bids b
WHERE 0.75 * (SELECT SUM(b1.volume) FROM bids b1)
  < (SELECT SUM(b2.volume) FROM bids b2 WHERE b2.price <= b.price)`

// vwapQuery is the Example 2.2 VWAP decile query, evaluated per partition
// by the serving layer.
func vwapQuery() *query.Query {
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

// vwapEvents generates the insert/delete trace over sym partitions.
func vwapEvents(seed int64, n, partitions int) []engine.Event {
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
			"price":  float64(rng.Intn(64) + 1),
			"volume": float64(rng.Intn(32) + 1),
		}
		live = append(live, t)
		out = append(out, engine.Insert(t))
	}
	return out
}

// vwapServer boots a loopback wire server over an in-memory catalog holding
// only vwapSQL — the daemon's single-query deployment. stop closes the
// server and then the catalog.
func vwapServer(shards int) (cat *catalog.Service, id catalog.QueryID, addr string, stop func(), err error) {
	cat, err = catalog.New(catalog.Options{PartitionBy: []string{"sym"}, Shards: shards})
	if err != nil {
		return nil, 0, "", nil, err
	}
	if id, _, err = cat.Register(vwapSQL); err != nil {
		cat.Close()
		return nil, 0, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cat.Close()
		return nil, 0, "", nil, err
	}
	srv := wire.NewCatalogServer(cat, wire.ServerConfig{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func() {
		srv.Close()
		<-done
		cat.Close()
	}
	return cat, id, ln.Addr().String(), stop, nil
}
