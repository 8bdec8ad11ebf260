// Package server exposes Canopus retrieval as a multi-tenant network
// service: a stdlib-only HTTP/JSON front end over a sharded keyspace of
// refactored campaigns. Each shard owns one storage hierarchy (and the
// reader cache over it); campaigns hash to shards by name, so N shards
// serve N hierarchies' worth of aggregate fast-tier capacity — the paper's
// elasticity argument applied to the serving side (cf. ScaleStore's one
// storage engine / many concurrent clients shape).
//
// Request flow: tenant resolution (X-Canopus-Tenant) → token-bucket quota →
// admission (bounded in-flight retrievals with a bounded wait) → shard →
// cached Reader → core retrieval. The server opens the obs request before
// calling core, so every nested cost — per-tier reads, modeled vs real
// bytes, decompress seconds — folds into one bill that is returned in the
// response and accumulated per tenant.
package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// DefaultTenant is billed when a request carries no X-Canopus-Tenant header.
const DefaultTenant = "anon"

// TenantHeader names the tenant a request is billed to.
const TenantHeader = "X-Canopus-Tenant"

var (
	metricLatency = obs.NewHistogram("canopus_server_request_seconds", nil)

	// evThrottled records every quota or admission rejection in the flight
	// recorder, so a tenant's 429s are inspectable next to the engine load
	// that caused them.
	evThrottled = obs.RegisterEventType("throttled")

	// evHandlerPanic records an endpoint body that panicked, with the
	// operation, the tenant and the panic value.
	evHandlerPanic = obs.RegisterEventType("handler_panic")
)

func init() {
	// Same posture as core's objectives: generous defaults so /debug/slo is
	// meaningful out of the box, tightened per deployment via SetObjective.
	obs.SetObjective("canopus_server_request_seconds", 0.99, 2*time.Second)
}

// Quota is a per-tenant token bucket: Burst tokens capacity, refilled at
// Rate tokens per second, one token per request. The zero Quota means
// unlimited.
type Quota struct {
	Rate  float64 `json:"rate"`
	Burst float64 `json:"burst"`
}

// Config assembles a Server.
type Config struct {
	// Shards are the campaign stores, one hierarchy each. Campaigns hash to
	// shards by name; at least one shard is required.
	Shards []*adios.IO
	// MaxInflight bounds concurrently executing retrievals across all
	// shards (the engine-pool saturation point). 0 means 4×GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds requests waiting for an in-flight slot; arrivals
	// beyond it are rejected immediately with 429. 0 means 4×MaxInflight.
	MaxQueue int
	// AdmissionWait bounds how long an admitted-to-queue request waits for
	// a slot before giving up with 429. 0 means 2s.
	AdmissionWait time.Duration
	// Quotas maps tenant name to its token bucket; absent tenants are
	// unlimited.
	Quotas map[string]Quota
	// Workers sets each cached Reader's engine pool size (0 = NumCPU).
	Workers int
	// Degrade enables best-effort views on partially unreadable campaigns
	// (core's SetDegrade) instead of failing the request.
	Degrade bool
}

// Server is the HTTP front end. Create with New, mount via Handler.
type Server struct {
	shards  []*shard
	tenants *tenantTable
	admit   *admission
	mux     *http.ServeMux
}

// New builds a Server over cfg's shards.
func New(cfg Config) (*Server, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("server: no shards configured")
	}
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 4 * runtime.GOMAXPROCS(0)
	}
	queue := cfg.MaxQueue
	if queue <= 0 {
		queue = 4 * inflight
	}
	wait := cfg.AdmissionWait
	if wait <= 0 {
		wait = 2 * time.Second
	}
	s := &Server{
		tenants: newTenantTable(cfg.Quotas),
		admit:   newAdmission(inflight, queue, wait),
	}
	one := func(*core.Reader) int64 { return 1 } // the reader table is unbounded
	for i, aio := range cfg.Shards {
		if aio == nil {
			return nil, fmt.Errorf("server: shard %d is nil", i)
		}
		s.shards = append(s.shards, &shard{aio: aio, workers: cfg.Workers, degrade: cfg.Degrade, readers: engine.NewCache[struct{}](math.MaxInt64, one)})
	}
	s.mux = s.routes()
	return s, nil
}

// Handler returns the server's HTTP handler: the /v1 API, /healthz, and the
// obs debug surface (pprof, metrics, /debug/slo, the event flight recorder)
// under /debug/.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "shards": len(s.shards)})
	})
	mux.HandleFunc("GET /v1/campaigns", s.handleCampaigns)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /v1/read/{name}", s.guard("read", s.handleRead))
	mux.HandleFunc("GET /v1/region/{name}", s.guard("region", s.handleRegion))
	mux.HandleFunc("GET /v1/stream/{name}", s.guard("stream", s.handleStream))
	mux.Handle("/debug/", obs.DebugHandler())
	return mux
}

// ShardIndex maps a campaign name onto one of n shards (FNV-1a mod n).
// Exported so loaders and benchmarks can place campaigns on the hierarchy
// the server will route their reads to.
func ShardIndex(name string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32()) % n
}

// shardFor hashes a campaign name onto a shard.
func (s *Server) shardFor(name string) *shard {
	return s.shards[ShardIndex(name, len(s.shards))]
}

// shard owns one hierarchy and a cache of open readers over it. Readers are
// safe for concurrent retrievals, so one cached Reader serves any number of
// in-flight requests for its campaign.
type shard struct {
	aio     *adios.IO
	workers int
	degrade bool
	// readers holds one open Reader per campaign name (the namespace).
	readers *engine.Cache[struct{}, *core.Reader]
}

// reader returns the cached Reader for campaign name, opening it on first
// use. Concurrent first requests open it once; a failed open is not cached,
// so the table holds only campaigns that exist.
func (sh *shard) reader(ctx context.Context, name string) (*core.Reader, error) {
	rd, _, err := sh.readers.Get(name, struct{}{}, func() (*core.Reader, error) {
		rd, err := core.OpenReader(ctx, sh.aio, name)
		if err != nil {
			return nil, err
		}
		rd.SetWorkers(sh.workers)
		rd.SetDegrade(sh.degrade)
		return rd, nil
	})
	return rd, err
}

// campaigns lists the campaign names stored on this shard: every key of the
// form <name>/meta marks one refactored variable.
func (sh *shard) campaigns() []string {
	var out []string
	for _, k := range sh.aio.H.Keys() {
		if name, ok := strings.CutSuffix(k, "/meta"); ok {
			out = append(out, name)
		}
	}
	return out
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Shard int    `json:"shard"`
	}
	var out []entry
	for i, sh := range s.shards {
		for _, name := range sh.campaigns() {
			out = append(out, entry{Name: name, Shard: i})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": out})
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.tenants.snapshot()})
}
