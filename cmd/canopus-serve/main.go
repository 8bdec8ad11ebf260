// Command canopus-serve exposes refactored campaigns over HTTP: a sharded,
// multi-tenant front end where N shards each own a storage hierarchy and
// campaigns hash to shards by name. Endpoints cover level reads, focused
// region reads, error-target reads, and an SSE progressive stream; every
// response carries the request's cost bill and /v1/tenants shows the
// per-tenant accounting. See README "Serving Canopus".
//
// Usage:
//
//	canopus-serve -demo -addr :8080
//	canopus-serve -dir /scratch/canopus -shards 4 -quotas 'guest=2:5'
//	curl -H 'X-Canopus-Tenant: alice' 'localhost:8080/v1/read/dpot-00?level=1'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/adios"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	dir := flag.String("dir", "", "data directory; shard i serves <dir>/shard<i> (file-backed). Empty requires -demo (in-memory shards)")
	shards := flag.Int("shards", 4, "number of campaign shards (hierarchies)")
	demo := flag.Bool("demo", false, "populate in-memory shards with synthetic XGC1 campaigns instead of opening -dir")
	demoCampaigns := flag.Int("demo-campaigns", 8, "campaigns to synthesize under -demo")
	quotas := flag.String("quotas", "", "per-tenant token buckets as 'tenant=rate:burst,...' (requests/sec and burst); unlisted tenants are unlimited")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing retrievals (0 = 4x GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max requests queued for a slot before immediate 429 (0 = 4x max-inflight)")
	admissionWait := flag.Duration("admission-wait", 0, "max time a queued request waits for a slot (0 = 2s)")
	workers := flag.Int("workers", 0, "engine workers per cached reader (0 = NumCPU)")
	cacheMB := flag.Int("cache-mb", 64, "page cache MiB per shard (0 = off)")
	tileCacheMB := flag.Int("tile-cache-mb", 32, "decoded-tile cache MiB per shard (0 = off)")
	placePolicy := flag.String("place-policy", "lru", "placement policy per shard, one of "+strings.Join(place.Names(), ", ")+" (every policy but lru runs a background promoter)")
	degrade := flag.Bool("degrade", false, "serve best-effort views when a delta level is unreadable instead of failing the request")
	var ocli obs.CLI
	ocli.Bind(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, finish, err := ocli.Start(ctx, "canopus-serve")
	if err == nil {
		err = run(ctx, *addr, *dir, *shards, *demo, *demoCampaigns, *quotas,
			*maxInflight, *maxQueue, *admissionWait, *workers, *cacheMB, *tileCacheMB, *placePolicy, *degrade)
		if ferr := finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "canopus-serve: %v\n", err)
		os.Exit(1)
	}
}

// parseQuotas parses 'tenant=rate:burst,...'.
func parseQuotas(s string) (map[string]server.Quota, error) {
	out := map[string]server.Quota{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, field := range strings.Split(s, ",") {
		name, spec, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("quota %q: want tenant=rate:burst", field)
		}
		rs, bs, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("quota %q: want tenant=rate:burst", field)
		}
		rate, err := strconv.ParseFloat(rs, 64)
		if err != nil {
			return nil, fmt.Errorf("quota %q rate: %w", field, err)
		}
		burst, err := strconv.ParseFloat(bs, 64)
		if err != nil {
			return nil, fmt.Errorf("quota %q burst: %w", field, err)
		}
		out[name] = server.Quota{Rate: rate, Burst: burst}
	}
	return out, nil
}

func run(ctx context.Context, addr, dir string, shards int, demo bool, demoCampaigns int, quotaSpec string,
	maxInflight, maxQueue int, admissionWait time.Duration, workers, cacheMB, tileCacheMB int, placePolicy string, degrade bool) error {
	if shards <= 0 {
		return fmt.Errorf("-shards must be positive")
	}
	if dir == "" && !demo {
		return fmt.Errorf("either -dir (file-backed shards) or -demo (synthetic in-memory shards) is required")
	}
	quotas, err := parseQuotas(quotaSpec)
	if err != nil {
		return err
	}
	pol, err := place.ByName(placePolicy)
	if err != nil {
		return err
	}

	ios := make([]*adios.IO, shards)
	for i := range ios {
		var h *storage.Hierarchy
		if dir == "" {
			h = storage.TitanTwoTier(64 << 20)
		} else {
			if h, err = storage.FileTwoTier(fmt.Sprintf("%s/shard%d", dir, i), 0); err != nil {
				return err
			}
		}
		h.SetPolicy(pol)
		if pol.Name() != "lru" {
			pr := h.NewPromoter(0)
			pr.Start()
			defer pr.Stop()
		}
		aio := adios.NewIO(h, nil)
		if cacheMB > 0 {
			aio.SetCache(adios.NewPageCache(int64(cacheMB)<<20, 0))
		}
		if tileCacheMB > 0 {
			aio.SetTileCache(compress.NewTileCache(int64(tileCacheMB) << 20))
		}
		ios[i] = aio
	}
	if demo {
		if err := populateDemo(ctx, ios, demoCampaigns, workers); err != nil {
			return err
		}
	}

	srv, err := server.New(server.Config{
		Shards:        ios,
		MaxInflight:   maxInflight,
		MaxQueue:      maxQueue,
		AdmissionWait: admissionWait,
		Quotas:        quotas,
		Workers:       workers,
		Degrade:       degrade,
	})
	if err != nil {
		return err
	}

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("canopus-serve: %d shard(s) on %s (policy %s)\n", shards, addr, pol.Name())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// populateDemo refactors n synthetic XGC1 campaigns into the shard each
// one's name hashes to, so the server's routing finds them.
func populateDemo(ctx context.Context, ios []*adios.IO, n, workers int) error {
	for i := 0; i < n; i++ {
		res := sim.XGC1(sim.XGC1Config{Rings: 12, Segments: 128, Seed: int64(i + 1)})
		ds := res.Dataset
		ds.Name = fmt.Sprintf("dpot-%02d", i)
		aio := ios[server.ShardIndex(ds.Name, len(ios))]
		if _, err := core.Write(ctx, aio, ds, core.Options{Levels: 3, RelTolerance: 1e-4, Workers: workers}); err != nil {
			return fmt.Errorf("demo campaign %s: %w", ds.Name, err)
		}
		fmt.Printf("canopus-serve: demo campaign %s on shard %d\n", ds.Name, server.ShardIndex(ds.Name, len(ios)))
	}
	return nil
}
