package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
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

// The service under test: canopus-serve's defaults scaled down to 24
// campaigns of 18.8 MB stored. Cached readers keep the geometry decoded, so
// the bytes requests actually fetch are the 2.8 MB of field payloads. The
// sizes below were chosen by measurement so that no cache holds everything:
// the page caches hit on about 55% of their lookups, the decoded-tile caches
// on about 85%, and the fast tier (a fifth of the stored bytes) serves about
// 6% of the bytes read from storage.
const (
	serveShards    = 2
	serveCampaigns = 24
	fastTierBytes  = 2 << 20
	pageCacheBytes = 1 << 20
	tileCacheBytes = 2 << 20
	zipfS          = 1.1
	openRate       = 400.0 // requests a second in the open phase
	warmRequests   = 1500
	verifyEvery    = 64
	verifyKeep     = 256 // bodies kept per phase for checking after it
	boxesPerName   = 4
	drainGrace     = 5 * time.Second

	tracedRequests = 1024
)

var tenants = []string{"alice", "bob", "carol"}

type reqKind uint8

const (
	kindLevel reqKind = iota
	kindTolerance
	kindRegion
)

// template is one request the generator can send, with what the library
// returns for it: the level it lands on, how many field values it carries,
// and a digest of them. Templates are drawn up once, at set-up.
type template struct {
	campaign int
	kind     reqKind
	level    int     // of a level read; Levels-1 is the first view
	eps      float64 // of an error-target read
	region   box     // of a regional read
	url      string
	values   int64
	wantLvl  int
	digest   [32]byte
}

// service is the state serve_zipf measures.
type service struct {
	ios       []*adios.IO
	pages     []*adios.PageCache
	tiles     []*compress.TileCache
	names     []string
	templates []template
	byKind    [3][][]int // kind → campaign → template indices
	rank      []int      // Zipf rank → campaign
	hs        *http.Server
	served    chan error
	base      string
	client    *http.Client
	clients   int
	readers   map[string]*core.Reader // for the library side of server.overhead_ms
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // nothing to do about a listener that will not close
	<-s.served
}

// digestValues hashes field values as their little-endian bits. With have,
// only restored vertices count, each with its index.
func digestValues(vals []float64, have []bool) [32]byte {
	sum := sha256.New()
	var buf [12]byte
	for i, v := range vals {
		if have != nil && !have[i] {
			continue
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(i))
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(v))
		sum.Write(buf[:])
	}
	var out [32]byte
	copy(out[:], sum.Sum(nil))
	return out
}

func buildService(ctx context.Context, cfg config) (*service, error) {
	s := &service{clients: runtime.NumCPU(), readers: map[string]*core.Reader{}}
	pol, err := place.ByName("lru")
	if err != nil {
		return nil, err
	}
	for i := 0; i < serveShards; i++ {
		h := storage.TitanTwoTier(fastTierBytes)
		h.SetPolicy(pol)
		pc, tc := adios.NewPageCache(pageCacheBytes, 0), compress.NewTileCache(tileCacheBytes)
		s.ios = append(s.ios, adios.NewIO(h, nil).SetCache(pc).SetTileCache(tc))
		s.pages, s.tiles = append(s.pages, pc), append(s.tiles, tc)
	}
	campaigns := serveCampaigns
	if cfg.tiny {
		campaigns = 4
	}
	// One ingesting goroutine per shard, each writing its shard's campaigns
	// in name order: a shard's placement history does not depend on timing,
	// and the two cores ingest side by side.
	perCampaign := make([][]template, campaigns)
	errs := make([]error, serveShards)
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		s.names = append(s.names, fmt.Sprintf("dpot-%02d", i))
	}
	for sh := range s.ios {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for i, name := range s.names {
				if server.ShardIndex(name, serveShards) != sh || errs[sh] != nil {
					continue
				}
				seed := dataSeed(cfg.seed, i)
				ds := sim.XGC1(cfg.plane(seed)).Dataset
				ds.Name = name
				rep, err := core.Write(ctx, s.ios[sh], ds, writeOpts)
				if err == nil {
					perCampaign[i], err = campaignTemplates(ctx, s.ios[sh], i, ds, rep, seed)
				}
				errs[sh] = err
			}
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for k := range s.byKind {
		s.byKind[k] = make([][]int, campaigns)
	}
	for ci, ts := range perCampaign {
		for _, t := range ts {
			s.byKind[t.kind][ci] = append(s.byKind[t.kind][ci], len(s.templates))
			s.templates = append(s.templates, t)
		}
	}
	s.rank = rand.New(rand.NewSource(cfg.seed)).Perm(campaigns)

	srv, err := server.New(server.Config{Shards: s.ios})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: s.clients, MaxConnsPerHost: s.clients, DisableCompression: true,
	}}
	return s, nil
}

// campaignTemplates draws up the requests one campaign can receive and
// records what the library answers to each.
func campaignTemplates(ctx context.Context, aio *adios.IO, ci int, ds *core.Dataset, rep *core.WriteReport, boxSeed int64) ([]template, error) {
	rd, err := core.OpenReader(ctx, aio, ds.Name)
	if err != nil {
		return nil, err
	}
	var out []template
	add := func(t template) {
		t.campaign = ci
		out = append(out, t)
	}
	for l := 0; l < rep.Levels; l++ {
		v, err := rd.Retrieve(ctx, l)
		if err != nil {
			return nil, err
		}
		add(template{kind: kindLevel, level: l, url: fmt.Sprintf("/v1/read/%s?level=%d", ds.Name, l),
			values: int64(len(v.Data)), wantLvl: v.Level, digest: digestValues(v.Data, nil)})
	}
	for _, l := range []int{1, 2} {
		eps := 1.01 * rep.Bounds[l]
		v, err := rd.RetrieveToTolerance(ctx, eps)
		if err != nil {
			return nil, err
		}
		if v.ErrorBound < 0 || v.ErrorBound > eps {
			return nil, fmt.Errorf("%s: tolerance view bound %g misses target %g", ds.Name, v.ErrorBound, eps)
		}
		add(template{kind: kindTolerance, eps: eps, url: fmt.Sprintf("/v1/read/%s?tolerance=%g", ds.Name, eps),
			values: int64(len(v.Data)), wantLvl: v.Level, digest: digestValues(v.Data, nil)})
	}
	rng := rand.New(rand.NewSource(boxSeed))
	minX, minY, maxX, maxY := ds.Mesh.Bounds()
	w, h := (maxX-minX)/2, (maxY-minY)/2
	for i := 0; i < boxesPerName; i++ {
		x, y := minX+rng.Float64()*w, minY+rng.Float64()*h
		rv, err := rd.RetrieveRegion(ctx, 0, x, y, x+w, y+h)
		if err != nil {
			return nil, err
		}
		add(template{kind: kindRegion, region: box{x, y, x + w, y + h},
			url:    fmt.Sprintf("/v1/region/%s?level=0&minx=%g&miny=%g&maxx=%g&maxy=%g", ds.Name, x, y, x+w, y+h),
			values: int64(rv.CountHave()), wantLvl: rv.Level, digest: digestValues(rv.Data, rv.Have)})
	}
	return out, nil
}

// picker draws requests: campaigns by Zipf popularity over a seeded rank
// shuffle; 60% level reads at a uniform level, 20% error-target reads, 20%
// focused regional reads.
type picker struct {
	s    *service
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (s *service) picker(seed int64) *picker {
	rng := rand.New(rand.NewSource(seed))
	return &picker{s: s, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(s.names)-1))}
}

func (p *picker) next() int {
	ci := p.s.rank[p.zipf.Uint64()]
	kind := kindLevel
	if u := p.rng.Float64(); u >= 0.8 {
		kind = kindRegion
	} else if u >= 0.6 {
		kind = kindTolerance
	}
	opts := p.s.byKind[kind][ci]
	return opts[p.rng.Intn(len(opts))]
}

// reply is one response as the client saw it.
type reply struct {
	tmpl   int
	status int
	bytes  int64
	body   []byte // kept only for replies picked for checking
	total  time.Duration
}

// send issues one request and returns once the response headers are in.
func (s *service) send(ctx context.Context, tmpl int, seq int64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+s.templates[tmpl].url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(server.TenantHeader, tenants[seq%int64(len(tenants))])
	return s.client.Do(req)
}

// drain reads a response to its last byte, keeping the body only when asked.
func drain(resp *http.Response, r *reply, keep bool) (err error) {
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if keep {
		r.body, err = io.ReadAll(resp.Body)
		r.bytes = int64(len(r.body))
		return err
	}
	r.bytes, err = io.Copy(io.Discard, resp.Body)
	return err
}

// get sends one request and reads the whole body. Latency runs from start,
// which in the open phase is the time the request was due.
func (s *service) get(ctx context.Context, tmpl int, seq int64, keep bool, start time.Time) (reply, error) {
	r := reply{tmpl: tmpl}
	resp, err := s.send(ctx, tmpl, seq)
	if err != nil {
		return r, err
	}
	err = drain(resp, &r, keep)
	r.total = time.Since(start)
	return r, err
}

// wireView is the part of a response body the checks read.
type wireView struct {
	Level int    `json:"level"`
	Data  []byte `json:"data"`
	Have  []byte `json:"have"`
}

// verify decodes a kept body and compares it with the library's answer.
func (s *service) verify(res *result, r reply) {
	t := s.templates[r.tmpl]
	var w wireView
	if err := json.Unmarshal(r.body, &w); err != nil {
		res.fail("%s: body does not decode: %v", t.url, err)
		return
	}
	if len(w.Data)%8 != 0 || (w.Have != nil && len(w.Have) != len(w.Data)/8) {
		res.fail("%s: %d data bytes, %d have marks", t.url, len(w.Data), len(w.Have))
		return
	}
	vals := make([]float64, len(w.Data)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(w.Data[8*i:]))
	}
	var have []bool
	if t.kind == kindRegion {
		have = make([]bool, len(w.Have))
		for i, b := range w.Have {
			have[i] = b != 0
		}
	}
	if w.Level != t.wantLvl || digestValues(vals, have) != t.digest {
		res.fail("%s: response differs from the library's view (level %d, want %d)", t.url, w.Level, t.wantLvl)
	}
}

// phase collects the replies of one timed phase.
type phase struct {
	mu        sync.Mutex
	replies   []reply
	kept      []reply
	lags      durations
	errors    int
	throttled int
}

func (ph *phase) record(r reply, err error, lag time.Duration) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.lags = append(ph.lags, lag)
	switch {
	case err != nil:
		ph.errors++
	case r.status == http.StatusTooManyRequests:
		ph.throttled++
	case r.status != http.StatusOK:
		ph.errors++
	default:
		if r.body != nil {
			ph.kept = append(ph.kept, r)
			r.body = nil
		}
		ph.replies = append(ph.replies, r)
	}
}

// closedLoop runs one caller per client connection, each sending its next
// request when the previous one completes, for d or until n requests.
func (s *service) closedLoop(ctx context.Context, seed int64, d time.Duration, n int64) (*phase, time.Duration) {
	ph := &phase{}
	var seq atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pick := s.picker(seed*131 + int64(c))
			for time.Now().Before(deadline) {
				k := seq.Add(1)
				if n > 0 && k > n {
					return
				}
				keep := k%verifyEvery == 0 && k/verifyEvery <= verifyKeep
				r, err := s.get(ctx, pick.next(), k, keep, time.Now())
				ph.record(r, err, 0)
			}
		}(c)
	}
	wg.Wait()
	return ph, time.Since(start)
}

// openStats describe how an open phase went besides its replies.
type openStats struct {
	scheduled int
	backlog   int // requests completed only after the phase's end
	unserved  int // requests not sent before the grace period ran out
}

// openLoop sends requests on a seeded Poisson schedule at rate requests a
// second for d, whatever the service's pace, over the client connections.
// Latency is timed from when a request was due, so a stall charges every
// request queued behind it.
func (s *service) openLoop(ctx context.Context, seed int64, rate float64, d time.Duration) (*phase, openStats) {
	rng := rand.New(rand.NewSource(seed))
	pick := s.picker(seed * 137)
	var due []time.Duration
	var tmpls []int
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
		tmpls = append(tmpls, pick.next())
	}
	ph := &phase{}
	var next, late, unserved atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(due); i = int(next.Add(1)) - 1 {
				if time.Now().After(end.Add(drainGrace)) {
					unserved.Add(1)
					continue
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				lag := time.Since(at)
				k := int64(i + 1)
				keep := k%verifyEvery == 0 && k/verifyEvery <= verifyKeep
				r, err := s.get(ctx, tmpls[i], k, keep, at)
				ph.record(r, err, lag)
				if time.Now().After(end) {
					late.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return ph, openStats{scheduled: len(due), backlog: int(late.Load()), unserved: int(unserved.Load())}
}

// bills sums the per-tenant bills the service publishes at /v1/tenants.
func (s *service) bills(ctx context.Context) (server.Bill, error) {
	var total server.Bill
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/tenants", nil)
	if err != nil {
		return total, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return total, err
	}
	defer resp.Body.Close()
	var doc struct {
		Tenants []server.TenantStatus `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return total, err
	}
	total.TierBytes = map[string]int64{}
	for _, t := range doc.Tenants {
		total.Requests += t.Bill.Requests
		total.Throttled += t.Bill.Throttled
		total.Errors += t.Bill.Errors
		total.ModeledBytes += t.Bill.ModeledBytes
		total.RealBytes += t.Bill.RealBytes
		total.IOSeconds += t.Bill.IOSeconds
		for tier, n := range t.Bill.TierBytes {
			total.TierBytes[tier] += n
		}
	}
	return total, nil
}

// fold adds a finished phase to the result: every request attempted, every
// error, refusal and failed body check counted.
func (s *service) fold(res *result, ph *phase, extraFailed int) (values int64) {
	res.attempted += len(ph.replies) + ph.errors + ph.throttled + extraFailed
	if n := ph.errors + ph.throttled + extraFailed; n > 0 {
		res.failN(n, "%d requests failed, %d refused, %d unserved", ph.errors, ph.throttled, extraFailed)
	}
	for _, r := range ph.kept {
		s.verify(res, r)
	}
	for _, r := range ph.replies {
		values += s.templates[r.tmpl].values
	}
	return values
}

func totals(replies []reply) (d durations, bytes int64) {
	for _, r := range replies {
		d = append(d, r.total)
		bytes += r.bytes
	}
	return d, bytes
}

// runServeZipf is the operator's side: what one node sustains, and what a
// request costs, with every client connection busy for the whole run. The
// fixed-rate open phase is in the traced pass and carries no bound: at 400
// requests a second both cores are idle between requests, so its latencies
// are mostly the time the host takes to wake them (a base-level read took
// 0.11 ms in the closed loop and 0.9 ms in the open one), and with two
// connections a 15% shift in that time moved the p95 by 40% between runs of
// the same code.
func runServeZipf(ctx context.Context, cfg config) (*result, error) {
	res := newResult("serve_zipf")
	// live is the service of the latest set-up round; the next round, or the
	// end of the run, closes it.
	var live *service
	closeLive := func() {
		if live != nil {
			live.close()
			live = nil
		}
	}
	defer closeLive()
	s, setupS, err := repeatSetup(func() (*service, error) {
		closeLive()
		s, err := buildService(ctx, cfg)
		if err != nil {
			return nil, err
		}
		live = s
		n := int64(warmRequests)
		if cfg.tiny {
			n /= 10
		}
		warm, _ := s.closedLoop(ctx, cfg.seed+1, time.Minute, n)
		if warm.errors+warm.throttled > 0 {
			return nil, fmt.Errorf("warm-up: %d requests failed, %d refused", warm.errors, warm.throttled)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS, setupRounds)
	if cfg.trace {
		return res, traceServeZipf(ctx, cfg, res, s)
	}

	before, err := s.bills(ctx)
	if err != nil {
		return nil, err
	}
	closed, wall := s.closedLoop(ctx, cfg.seed+2, cfg.duration(), 0)
	values := s.fold(res, closed, 0)
	after, err := s.bills(ctx)
	if err != nil {
		return nil, err
	}
	if len(closed.replies) == 0 {
		return res, nil
	}

	lat, bytes := totals(closed.replies)
	var first durations
	for _, r := range closed.replies {
		if t := s.templates[r.tmpl]; t.kind == kindLevel && t.level == writeOpts.Levels-1 {
			first = append(first, r.total)
		}
	}
	requests := float64(after.Requests - before.Requests)
	res.set("ops_per_s", float64(len(closed.replies))/wall.Seconds(), len(closed.replies))
	res.set("payload_MBps", float64(bytes)/1e6/wall.Seconds(), len(closed.replies))
	res.set("op_p50_ms", lat.quantileMs(0.5), len(lat))
	res.set("op_p95_ms", lat.tailMs(0.95), len(lat))
	res.set("first_view_p50_ms", first.quantileMs(0.5), len(first))
	res.set("storage_bytes_per_raw_byte", float64(after.ModeledBytes-before.ModeledBytes)/float64(8*values), int(requests))
	res.set("modeled_io_ms_per_op", (after.IOSeconds-before.IOSeconds)*1e3/requests, int(requests))
	return res, nil
}

// library answers a template through core.Reader on the service's own store,
// with one cached reader per campaign as the service keeps.
func (s *service) library(ctx context.Context, tmpl int) error {
	t := s.templates[tmpl]
	name := s.names[t.campaign]
	rd := s.readers[name]
	if rd == nil {
		var err error
		if rd, err = core.OpenReader(ctx, s.ios[server.ShardIndex(name, serveShards)], name); err != nil {
			return err
		}
		s.readers[name] = rd
	}
	var err error
	switch t.kind {
	case kindLevel:
		_, err = rd.Retrieve(ctx, t.level)
	case kindTolerance:
		_, err = rd.RetrieveToTolerance(ctx, t.eps)
	case kindRegion:
		_, err = rd.RetrieveRegion(ctx, 0, t.region.minX, t.region.minY, t.region.maxX, t.region.maxY)
	}
	return err
}

func (s *service) cacheStats() (pageHits, pageMisses, tileHits, tileMisses int64) {
	for i := range s.ios {
		h, m := s.pages[i].Stats()
		pageHits, pageMisses = pageHits+h, pageMisses+m
		h, m = s.tiles[i].Stats()
		tileHits, tileMisses = tileHits+h, tileMisses+m
	}
	return
}

func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

func traceServeZipf(ctx context.Context, cfg config, res *result, s *service) error {
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	deadline := time.Now().Add(cfg.duration())
	pick := s.picker(cfg.seed + 4)

	// One client, one operation at a time, all drawn from one request stream
	// so that the caches see every pick once. Of every four picks two are
	// traced requests (a root span, with the wait for the response headers
	// and the read of the body as its children), one is answered by the
	// library on the service's own store (a probe span: what the same mix
	// costs without the service in front), and one is a plain request.
	tr := newTracer()
	ph := &phase{}
	before, err := s.bills(ctx)
	if err != nil {
		return err
	}
	ph0, pm0, th0, tm0 := s.cacheStats()
	migrations := obs.Default.Counter("canopus_storage_migrations_total") // the counter storage registers
	migrations0 := migrations.Value()
	var plain, viaLibrary durations
	ops := 0
	for i := 0; ops < tracedRequests && (ops < 2 || time.Now().Before(deadline)); i++ {
		r := reply{tmpl: pick.next()}
		switch i % plainEvery {
		case plainEvery - 1:
			r, err := s.get(ctx, r.tmpl, int64(i), false, time.Now())
			if err == nil && r.status == http.StatusOK {
				plain = append(plain, r.total)
			}
			ph.record(r, err, 0)
			continue
		case 1:
			parent := tr.start("probe", ops, 0)
			id := tr.start("server.library", ops, parent)
			t0 := time.Now()
			err := s.library(ctx, r.tmpl)
			viaLibrary = append(viaLibrary, time.Since(t0))
			tr.end(id)
			tr.end(parent)
			if err != nil {
				return err
			}
			continue
		}
		root := tr.start("root", ops, 0)
		start := time.Now()
		id := tr.start("http.headers", ops, root)
		resp, err := s.send(ctx, r.tmpl, int64(i))
		tr.end(id)
		if err == nil {
			id = tr.start("http.body", ops, root)
			err = drain(resp, &r, false)
			tr.end(id)
		}
		r.total = time.Since(start)
		tr.end(root)
		ph.record(r, err, 0)
		ops++
	}
	after, err := s.bills(ctx)
	if err != nil {
		return err
	}
	ph1, pm1, th1, tm1 := s.cacheStats()
	s.fold(res, ph, 0)
	_, wire := totals(ph.replies)
	var tierTotal int64
	for tier, n := range after.TierBytes {
		tierTotal += n - before.TierBytes[tier]
	}
	led := tr.ledger([]string{"http.headers", "http.body"})
	res.set("core.root_ms", led["root.total"], ops)
	res.set("server.wire_bytes_per_req", float64(wire)/float64(max(1, len(ph.replies))), len(ph.replies))
	res.set("compress.tile_cache_hit_ratio", ratio(th1-th0, tm1-tm0), int(th1-th0+tm1-tm0))
	res.set("adios.page_cache_hit_ratio", ratio(ph1-ph0, pm1-pm0), int(ph1-ph0+pm1-pm0))
	res.set("adios.real_per_modeled_byte", float64(after.RealBytes-before.RealBytes)/float64(max(1, after.ModeledBytes-before.ModeledBytes)), ops)
	res.set("storage.fast_tier_read_ratio", float64(after.TierBytes["tmpfs"]-before.TierBytes["tmpfs"])/float64(max(1, tierTotal)), ops)
	res.set("place.migrations", float64(migrations.Value()-migrations0), ops)
	res.set("harness.trace_overhead_pct", overheadPct(led["root.total"], plain.quantileMs(0.5)), len(plain))

	lib := viaLibrary.quantileMs(0.5)
	res.set("server.library_ms", lib, len(viaLibrary))
	res.set("server.overhead_ms", led["root.total"]-lib-led["op_self"], ops)
	res.set("core.op_self_ms", led["op_self"], ops)

	// A short open phase: latency at a fixed arrival rate, timed from the due
	// time, with the numbers that say whether it can be trusted: refusals,
	// generator lag and the backlog at its end.
	openFor := min(cfg.duration()/2, 5*time.Second)
	open, st := s.openLoop(ctx, cfg.seed+3, openRate, openFor)
	s.fold(res, open, st.unserved)
	if float64(len(open.replies)) < 0.98*float64(st.scheduled) {
		res.fail("open phase completed %d of %d scheduled requests", len(open.replies), st.scheduled)
	}
	lat, _ := totals(open.replies)
	res.set("server.open_p50_ms", lat.quantileMs(0.5), len(lat))
	res.set("server.open_p95_ms", lat.quantileMs(0.95), len(lat))
	res.set("server.p99_ms", lat.quantileMs(0.99), len(lat))
	res.set("server.throttled", float64(open.throttled+ph.throttled), st.scheduled)
	res.set("server.gen_lag_p99_ms", open.lags.quantileMs(0.99), len(open.lags))
	res.set("server.backlog_end", float64(st.backlog), st.scheduled)
	runtimeMetrics(res, &base)
	return tr.write(cfg.tracePath(res.workload))
}
