package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/storage"
)

// fixture builds nShards in-memory shards holding nCampaigns synthetic
// XGC1 campaigns (each placed on the shard its name hashes to), plus the
// direct adios handles for ground-truth reads.
func fixture(t *testing.T, nShards, nCampaigns int, cfg Config) (*Server, []*adios.IO, []string) {
	t.Helper()
	ios := make([]*adios.IO, nShards)
	for i := range ios {
		ios[i] = adios.NewIO(storage.TitanTwoTier(0), nil)
	}
	names := make([]string, nCampaigns)
	for i := range names {
		res := sim.XGC1(sim.XGC1Config{Rings: 10, Segments: 96, Seed: int64(i + 1)})
		ds := res.Dataset
		ds.Name = fmt.Sprintf("dpot-%02d", i)
		names[i] = ds.Name
		aio := ios[ShardIndex(ds.Name, nShards)]
		if _, err := core.Write(context.Background(), aio, ds, core.Options{Levels: 3, RelTolerance: 1e-4, Workers: 1}); err != nil {
			t.Fatalf("write %s: %v", ds.Name, err)
		}
	}
	cfg.Shards = ios
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ios, names
}

func decodeF64(t *testing.T, b []byte) []float64 {
	t.Helper()
	if len(b)%8 != 0 {
		t.Fatalf("payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// TestReadBitIdentical drives concurrent mixed-level reads through the HTTP
// surface and checks every payload is bit-identical to a direct
// Reader.Retrieve of the same campaign and level.
func TestReadBitIdentical(t *testing.T) {
	s, ios, names := fixture(t, 3, 4, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Ground truth per (campaign, level) via direct readers.
	truth := map[string][]float64{}
	for _, name := range names {
		rd, err := core.OpenReader(context.Background(), ios[ShardIndex(name, len(ios))], name)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < rd.Levels(); l++ {
			v, err := rd.Retrieve(context.Background(), l)
			if err != nil {
				t.Fatal(err)
			}
			truth[fmt.Sprintf("%s/%d", name, l)] = v.Data
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				name := names[(g+i)%len(names)]
				level := (g + i) % 3
				resp, err := http.Get(fmt.Sprintf("%s/v1/read/%s?level=%d", ts.URL, name, level))
				if err != nil {
					errs <- err
					return
				}
				var body viewPayload
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("read %s level %d: status %d", name, level, resp.StatusCode)
					return
				}
				want := truth[fmt.Sprintf("%s/%d", name, level)]
				got := decodeF64(t, body.Data)
				if len(got) != len(want) {
					errs <- fmt.Errorf("%s level %d: %d values, want %d", name, level, len(got), len(want))
					return
				}
				for vi := range got {
					if math.Float64bits(got[vi]) != math.Float64bits(want[vi]) {
						errs <- fmt.Errorf("%s level %d: value %d = %v, want %v (not bit-identical)", name, level, vi, got[vi], want[vi])
						return
					}
				}
				if body.Cost == nil || body.Cost.ModeledBytes <= 0 {
					errs <- fmt.Errorf("%s level %d: response carries no cost bill", name, level)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestToleranceAndRegionEndpoints covers the error-target and focused-read
// paths through the HTTP surface.
func TestToleranceAndRegionEndpoints(t *testing.T) {
	s, _, names := fixture(t, 2, 2, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(fmt.Sprintf("%s/v1/read/%s?tolerance=0.5", ts.URL, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	var v viewPayload
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tolerance read: status %d", resp.StatusCode)
	}
	if v.ErrorBound > 0.5 || v.ErrorBound < 0 {
		t.Fatalf("tolerance read: bound %v exceeds target 0.5", v.ErrorBound)
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/region/%s?level=0&minx=0&miny=0&maxx=1&maxy=1", ts.URL, names[1]))
	if err != nil {
		t.Fatal(err)
	}
	var rp regionPayload
	if err := json.NewDecoder(resp.Body).Decode(&rp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region read: status %d", resp.StatusCode)
	}
	if rp.Restored <= 0 || rp.Restored > rp.NumVerts {
		t.Fatalf("region read restored %d of %d", rp.Restored, rp.NumVerts)
	}
	if len(rp.Have) != rp.NumVerts || len(rp.Data) != 8*rp.NumVerts {
		t.Fatalf("region read: have %d, data %d bytes, verts %d", len(rp.Have), len(rp.Data), rp.NumVerts)
	}
}

// TestErrorStatuses maps the API's failure modes to their codes.
func TestErrorStatuses(t *testing.T) {
	s, _, names := fixture(t, 2, 1, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/read/nope?level=0", http.StatusNotFound},
		{fmt.Sprintf("/v1/read/%s?level=99", names[0]), http.StatusBadRequest},
		{fmt.Sprintf("/v1/read/%s?tolerance=-1", names[0]), http.StatusBadRequest},
		{fmt.Sprintf("/v1/region/%s?level=0&minx=0", names[0]), http.StatusBadRequest},
		{fmt.Sprintf("/v1/stream/%s", names[0]), http.StatusBadRequest},
		{fmt.Sprintf("/v1/region/%s?level=0&minx=1&miny=0&maxx=0&maxy=1", names[0]), http.StatusBadRequest},
		{fmt.Sprintf("/v1/region/%s?level=99&minx=0&miny=0&maxx=1&maxy=1", names[0]), http.StatusBadRequest},
		{fmt.Sprintf("/v1/region/%s?level=-1&minx=0&miny=0&maxx=1&maxy=1", names[0]), http.StatusBadRequest},
	}
	// ParseFloat accepts NaN and the infinities; the library refuses them
	// in every position.
	for pos := 0; pos < 4; pos++ {
		for _, bad := range []string{"NaN", "Inf", "-Inf"} {
			coords := []string{"0", "0", "1", "1"}
			coords[pos] = bad
			cases = append(cases, struct {
				url  string
				code int
			}{fmt.Sprintf("/v1/region/%s?level=0&minx=%s&miny=%s&maxx=%s&maxy=%s",
				names[0], coords[0], coords[1], coords[2], coords[3]), http.StatusBadRequest})
		}
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: body not JSON: %v", c.url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.url, resp.StatusCode, c.code)
		}
		if body["error"] == "" {
			t.Errorf("%s: error body missing 'error' field: %v", c.url, body)
		}
	}
}

// TestReaderTableSkipsFailedOpens requests many campaigns that do not exist:
// each gets 404 and none is left in the reader table, so unknown names
// cannot grow it. A campaign written afterwards opens on its first request.
func TestReaderTableSkipsFailedOpens(t *testing.T) {
	s, ios, _ := fixture(t, 1, 0, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(name string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/read/" + name + "?level=0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := range 1000 {
		if code := get(fmt.Sprint("ghost-", i)); code != http.StatusNotFound {
			t.Fatalf("unknown campaign %d: status %d, want 404", i, code)
		}
	}
	if n := s.shards[0].readers.Size(); n != 0 {
		t.Fatalf("reader table holds %d entries after failed opens, want 0", n)
	}
	ds := sim.XGC1(sim.XGC1Config{Rings: 10, Segments: 96, Seed: 1}).Dataset
	ds.Name = "ghost-0"
	if _, err := core.Write(context.Background(), ios[0], ds, core.Options{Levels: 3, RelTolerance: 1e-4, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if code := get(ds.Name); code != http.StatusOK {
		t.Fatalf("first request after the write: status %d, want 200", code)
	}
	if n := s.shards[0].readers.Size(); n != 1 {
		t.Fatalf("reader table holds %d entries, want 1", n)
	}
}

// TestQuotaExhaustion gives one tenant a tiny bucket and checks exhaustion
// yields 429 with a well-formed body and Retry-After header, while an
// uncapped tenant on the same server is unaffected; /v1/tenants shows the
// throttle count on the capped tenant's bill.
func TestQuotaExhaustion(t *testing.T) {
	s, _, names := fixture(t, 2, 1, Config{
		Quotas: map[string]Quota{"capped": {Rate: 0.0001, Burst: 2}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(tenant string) *http.Response {
		req, _ := http.NewRequest("GET", fmt.Sprintf("%s/v1/read/%s?level=2", ts.URL, names[0]), nil)
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	start := obs.LastEventSeq()
	throttled := 0
	for i := 0; i < 5; i++ {
		resp := get("capped")
		if resp.StatusCode == http.StatusTooManyRequests {
			throttled++
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After header")
			}
			var body struct {
				Error             string `json:"error"`
				Status            int    `json:"status"`
				RetryAfterSeconds int    `json:"retry_after_seconds"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("429 body not JSON: %v", err)
			}
			if body.Error == "" || body.Status != 429 || body.RetryAfterSeconds < 1 {
				t.Fatalf("malformed 429 body: %+v", body)
			}
		}
		resp.Body.Close()
	}
	if throttled != 3 {
		t.Fatalf("capped tenant: %d throttles in 5 requests, want 3 (burst 2)", throttled)
	}
	// Each quota 429 is in the flight recorder, attributed to its tenant.
	evs := obs.Events([]string{"throttled"}, start)
	if len(evs) != 3 {
		t.Fatalf("%d throttled events, want 3", len(evs))
	}
	for _, e := range evs {
		if e.Attrs["reason"] != "quota" || e.Attrs["tenant"] != "capped" || e.Attrs["op"] != "read" {
			t.Errorf("throttled event attrs %v, want reason=quota tenant=capped op=read", e.Attrs)
		}
	}

	// The uncapped tenant sails through after the capped one is cut off.
	for i := 0; i < 3; i++ {
		resp := get("open")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("uncapped tenant request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Tenants []TenantStatus `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byName := map[string]TenantStatus{}
	for _, st := range tl.Tenants {
		byName[st.Tenant] = st
	}
	if got := byName["capped"].Bill.Throttled; got != 3 {
		t.Fatalf("capped tenant billed %d throttles, want 3", got)
	}
	if st := byName["open"]; st.Bill.Errors != 0 || st.Bill.Requests != 3 || st.Bill.ModeledBytes <= 0 {
		t.Fatalf("open tenant bill off: %+v", st.Bill)
	}
}

// TestGuardRecoversPanic runs endpoint bodies that panic behind guard. One
// that panics before writing is answered with a 500 error body; one that
// panics after its header went out aborts the response (net/http's
// ErrAbortHandler, so the client sees a truncated body, never a complete
// one). Either way the tenant is charged one failed request and a
// handler_panic event names the operation and the tenant.
func TestGuardRecoversPanic(t *testing.T) {
	s, err := New(Config{Shards: []*adios.IO{adios.NewIO(storage.TitanTwoTier(0), nil)}})
	if err != nil {
		t.Fatal(err)
	}
	start := obs.LastEventSeq()
	serve := func(tenant string, body func(w http.ResponseWriter)) (rec *httptest.ResponseRecorder, aborted any) {
		h := s.guard("read", func(w http.ResponseWriter, _ *http.Request, _ *shard, _ func() *obs.CostReport) error {
			body(w)
			return nil
		})
		req := httptest.NewRequest(http.MethodGet, "/v1/read/v", nil)
		req.Header.Set(TenantHeader, tenant)
		rec = httptest.NewRecorder()
		defer func() { aborted = recover() }()
		h(rec, req)
		return rec, nil
	}

	rec, aborted := serve("early", func(http.ResponseWriter) { panic("boom") })
	if aborted != nil {
		t.Fatalf("panic before any write escaped guard: %v", aborted)
	}
	check500(t, "panic before write", rec)

	_, aborted = serve("late", func(w http.ResponseWriter) {
		writeBody(w, http.StatusOK, []byte("{\"partial\":"))
		panic("boom")
	})
	if aborted != http.ErrAbortHandler {
		t.Fatalf("panic after a write: guard let %v escape, want http.ErrAbortHandler", aborted)
	}

	bills := map[string]Bill{}
	for _, st := range s.tenants.snapshot() {
		bills[st.Tenant] = st.Bill
	}
	for _, tenant := range []string{"early", "late"} {
		if b := bills[tenant]; b.Requests != 1 || b.Errors != 1 {
			t.Errorf("tenant %s billed %+v, want one failed request", tenant, b)
		}
	}
	evs := obs.Events([]string{"handler_panic"}, start)
	if len(evs) != 2 {
		t.Fatalf("%d handler_panic events, want 2", len(evs))
	}
	for i, tenant := range []string{"early", "late"} {
		a := evs[i].Attrs
		if a["op"] != "read" || a["tenant"] != tenant || a["panic"] != "boom" {
			t.Errorf("handler_panic event %d attrs %v", i, a)
		}
	}
}

// TestTenantTableBounded sends more distinct tenant names than the table
// keeps rows for, plus one over-long name, through the HTTP surface: the
// /v1/tenants listing stays bounded, a configured tenant keeps its own row
// however full the table is, and the bills still sum to the requests sent.
func TestTenantTableBounded(t *testing.T) {
	s, _, names := fixture(t, 1, 1, Config{
		Quotas: map[string]Quota{"vip": {Rate: 1000, Burst: 1000}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tenants := []string{strings.Repeat("x", maxTenantName+1)}
	for i := 0; i < maxTenantRows+10; i++ {
		tenants = append(tenants, fmt.Sprintf("t%04d", i))
	}
	tenants = append(tenants, "vip")
	for _, tenant := range tenants {
		req, _ := http.NewRequest("GET", fmt.Sprintf("%s/v1/read/%s?level=2", ts.URL, names[0]), nil)
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %.8q: status %d", tenant, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Tenants []TenantStatus `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Unconfigured rows, the overflow row and the configured tenant.
	if n, limit := len(tl.Tenants), maxTenantRows+2; n > limit {
		t.Fatalf("/v1/tenants lists %d rows for %d tenants, want at most %d", n, len(tenants), limit)
	}
	var billed int64
	vip := false
	for _, st := range tl.Tenants {
		billed += st.Bill.Requests
		if st.Tenant == "vip" {
			vip = st.Bill.Requests == 1 && st.Quota != nil
		}
	}
	if billed != int64(len(tenants)) {
		t.Errorf("bills sum to %d requests, sent %d", billed, len(tenants))
	}
	if !vip {
		t.Error("configured tenant lost its own row")
	}
}

// TestAdmissionBackpressure saturates a 1-slot server with a slow (fault-
// delayed) request and checks the overflow request is turned away with 429
// + Retry-After instead of queueing without bound.
func TestAdmissionBackpressure(t *testing.T) {
	s, ios, names := fixture(t, 1, 1, Config{
		MaxInflight:   1,
		MaxQueue:      1,
		AdmissionWait: 50 * time.Millisecond,
	})
	// Slow every read enough that one request holds the slot for a while.
	if _, err := ios[0].H.InjectFaults("seed=1,read.delay=300ms"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	go func() {
		defer close(release)
		resp, err := http.Get(fmt.Sprintf("%s/v1/read/%s?level=2", ts.URL, names[0]))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request take the slot

	// Second request queues (MaxQueue 1) and times out; third is rejected
	// immediately or queued-and-timed-out — either way a 429.
	got429 := 0
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/read/%s?level=2", ts.URL, names[0]))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("admission 429 without Retry-After")
				}
				got429++
			}
			io.Copy(io.Discard, resp.Body)
		}()
		wg.Wait()
	}
	if got429 == 0 {
		t.Fatal("no request saw admission backpressure despite a saturated 1-slot pool")
	}
	<-release
}

// streamEvents reads SSE events off r until the stream closes, returning
// the event names seen.
func streamEvents(t *testing.T, r io.Reader) []string {
	t.Helper()
	var events []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, name)
		}
	}
	return events
}

// TestStreamDeliversProgressiveViews subscribes over HTTP and checks the
// SSE stream refines level by level and terminates with an "end" event
// carrying the bill.
func TestStreamDeliversProgressiveViews(t *testing.T) {
	s, _, names := fixture(t, 2, 1, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/stream/%s?tolerance=0.0001", ts.URL, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	events := streamEvents(t, resp.Body)
	views := 0
	for _, e := range events {
		if e == "view" {
			views++
		}
	}
	if views < 2 {
		t.Fatalf("stream delivered %d views, want >= 2 (progressive refinement)", views)
	}
	if events[len(events)-1] != "end" {
		t.Fatalf("stream events %v: want terminal end event", events)
	}
}

// waitGoroutines polls until the process goroutine count drops back to at
// most base+slack, failing the test if it never does. Under -race this is
// the leak detector for the disconnect and cancel-storm tests.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines stuck at %d (baseline %d + slack %d):\n%s", n, base, slack, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamClientDisconnectCancelsSubscribe opens a stream whose reads are
// slowed by injected fault delay, disconnects after the first view, and
// checks the subscription goroutine unwinds — no leak, no stall on the
// injected delay (the two context bugfixes end to end).
func TestStreamClientDisconnectCancelsSubscribe(t *testing.T) {
	s, ios, names := fixture(t, 1, 1, Config{})
	if _, err := ios[0].H.InjectFaults("seed=1,read.delay=200ms"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/v1/stream/%s?tolerance=0.0001", ts.URL, names[0]), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read just the first event, then hang up mid-stream.
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first stream read: %v", err)
	}
	cancel()
	resp.Body.Close()
	waitGoroutines(t, base, 4)
}

// TestCancelStormReleasesSlots fires a storm of requests whose contexts are
// cancelled mid-flight against a fault-delayed, promoter-driven hierarchy:
// afterwards no goroutine may be stuck in the injected delay, every
// admission slot must be back (a fresh request succeeds immediately), and
// the promoter must stop promptly.
func TestCancelStormReleasesSlots(t *testing.T) {
	s, ios, names := fixture(t, 2, 2, Config{
		MaxInflight:   4,
		MaxQueue:      64,
		AdmissionWait: 5 * time.Second,
	})
	var promoters []*place.Promoter
	for _, aio := range ios {
		if _, err := aio.H.InjectFaults("seed=1,read.delay=150ms"); err != nil {
			t.Fatal(err)
		}
		pr := aio.H.NewPromoter(10 * time.Millisecond)
		pr.Start()
		defer pr.Stop() // idempotent; the timed Stop below is the real one
		promoters = append(promoters, pr)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(10+i*5)*time.Millisecond)
			defer cancel()
			url := fmt.Sprintf("%s/v1/read/%s?level=%d", ts.URL, names[i%len(names)], i%3)
			if i%4 == 0 {
				url = fmt.Sprintf("%s/v1/stream/%s?tolerance=0.0001", ts.URL, names[i%len(names)])
			}
			req, _ := http.NewRequestWithContext(ctx, "GET", url, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // cancelled in flight — the point of the storm
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	wg.Wait()

	// Every cancelled request must have released its slot: a fresh request
	// gets through well within the fault-delay budget rather than queueing
	// behind stuck holders.
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/read/%s?level=2", ts.URL, names[0]))
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("post-storm request: status %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("post-storm request stalled: engine slots not released")
	}
	waitGoroutines(t, base, 8)

	// Promoter shutdown must interrupt any in-flight cycle promptly even
	// with fault delay in the move path.
	start := time.Now()
	for _, pr := range promoters {
		pr.Stop()
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("promoter Stop took %v under fault delay", elapsed)
	}
}
