package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

// viewPayload and regionPayload are the encoding/json forms of a view
// body: the oracle viewBody.appendTo must match byte for byte, and the
// shape tests decode responses into.
type viewPayload struct {
	Name        string            `json:"name"`
	Level       int               `json:"level"`
	Levels      int               `json:"levels"`
	ErrorBound  float64           `json:"error_bound"`
	NumVerts    int               `json:"num_verts"`
	Data        []byte            `json:"data"`
	Degradation *core.Degradation `json:"degradation,omitempty"`
	Cost        *obs.CostReport   `json:"cost,omitempty"`
}

type regionPayload struct {
	Name        string            `json:"name"`
	Level       int               `json:"level"`
	ErrorBound  float64           `json:"error_bound"`
	NumVerts    int               `json:"num_verts"`
	Restored    int               `json:"restored"`
	Data        []byte            `json:"data"`
	Have        []byte            `json:"have"`
	Degradation *core.Degradation `json:"degradation,omitempty"`
	Cost        *obs.CostReport   `json:"cost,omitempty"`
}

func float64sLE(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// oraclePayload is b as the oracle structs hold it.
func oraclePayload(b *viewBody) any {
	if !b.region {
		return viewPayload{
			Name: b.name, Level: b.level, Levels: b.levels, ErrorBound: b.errorBound,
			NumVerts: b.numVerts, Data: float64sLE(b.data), Degradation: b.deg, Cost: b.cost,
		}
	}
	have := make([]byte, len(b.have))
	for i, ok := range b.have {
		if ok {
			have[i] = 1
		}
	}
	return regionPayload{
		Name: b.name, Level: b.level, ErrorBound: b.errorBound, NumVerts: b.numVerts,
		Restored: b.restored, Data: float64sLE(b.data), Have: have, Degradation: b.deg, Cost: b.cost,
	}
}

// oracleBody is b encoded by json.NewEncoder over the oracle structs.
func oracleBody(b *viewBody) ([]byte, error) {
	var out bytes.Buffer
	err := json.NewEncoder(&out).Encode(oraclePayload(b))
	return out.Bytes(), err
}

// guardedView runs writeView for b behind the server's guard, as a read
// handler does, and returns the recorded response.
func guardedView(t *testing.T, b *viewBody) *httptest.ResponseRecorder {
	t.Helper()
	s, err := New(Config{Shards: []*adios.IO{adios.NewIO(storage.TitanTwoTier(0), nil)}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.guard("read", func(w http.ResponseWriter, _ *http.Request, _ *shard, _ func() *obs.CostReport) error {
		return writeView(w, b)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/read/v", nil))
	return rec
}

// TestUnencodableBodyIs500 checks that a body JSON cannot carry (a NaN or
// an infinity anywhere) is answered with a 500 and an error body, never a
// 200 with an empty or partial body.
func TestUnencodableBodyIs500(t *testing.T) {
	cases := map[string]func(w http.ResponseWriter){
		"writeJSON NaN": func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, math.NaN()) },
		"writeJSON view bound NaN": func(w http.ResponseWriter) {
			writeJSON(w, http.StatusOK, viewPayload{Name: "v", ErrorBound: math.NaN()})
		},
	}
	views := map[string]*viewBody{
		"view bound NaN":          {name: "v", errorBound: math.NaN(), data: []float64{1, 2}},
		"region bound -Inf":       {name: "v", errorBound: math.Inf(-1), region: true, have: []bool{true}, data: []float64{1}},
		"view cost +Inf":          {name: "v", cost: &obs.CostReport{IOSeconds: math.Inf(1)}},
		"view degradation NaN":    {name: "v", deg: &core.Degradation{ErrorBound: math.NaN()}},
		"region degradation +Inf": {name: "v", region: true, deg: &core.Degradation{RequestedTolerance: math.Inf(1)}},
	}
	for name, write := range cases {
		rec := httptest.NewRecorder()
		write(rec)
		check500(t, name, rec)
	}
	for name, b := range views {
		check500(t, name, guardedView(t, b))
	}
}

func check500(t *testing.T, name string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("%s: status %d, want 500", name, rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"status":500`) {
		t.Errorf("%s: body %q carries no error", name, rec.Body.String())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", name, cl, rec.Body.Len())
	}
}

// FuzzViewBodyVsJSON holds the appender to encoding/json: for any values
// (NaN payloads and signed zeros included), any length, any have mask, any
// name (HTML characters, U+2028, invalid UTF-8) and optional degradation
// and cost, writeView's body and its SSE data line equal json.NewEncoder
// and json.Marshal over the oracle structs byte for byte, or both refuse
// the view and nothing reaches the client.
func FuzzViewBodyVsJSON(f *testing.F) {
	for n := 0; n <= 7; n++ {
		raw := make([]byte, 8*n)
		for i := range raw {
			raw[i] = byte(37*i + n)
		}
		f.Add("dpot-00", raw, uint64(0x5555), n%2 == 1, 2, 0.25, uint8(n%4), 1.5e-3, "tier \"fast\" down")
	}
	f.Add(`<a href="x">&amp;</a>\`+"\u2028\u2029\xff\xfe", []byte{0xff, 0xf8, 0, 0, 0, 0, 0, 1}, uint64(1), true, -1, -1.0, uint8(3), 0.0, "\x00 <")
	f.Add("v", float64sLE([]float64{math.Copysign(0, -1), math.Inf(1), math.NaN(), 1e-310}), uint64(0), false, 0, 1e21, uint8(1), 1e-7, "")
	f.Fuzz(func(t *testing.T, name string, raw []byte, mask uint64, region bool, level int, bound float64, extras uint8, secs float64, reason string) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		b := &viewBody{name: name, level: level, levels: level + 3, errorBound: bound, numVerts: len(vals), data: vals, region: region}
		if region {
			b.have = make([]bool, len(vals))
			for i := range b.have {
				if b.have[i] = mask>>(i%64)&1 == 1; b.have[i] {
					b.restored++
				}
			}
		}
		if extras&1 != 0 {
			b.deg = &core.Degradation{RequestedLevel: level, AchievedLevel: level + 1, LevelsLost: 1, RequestedTolerance: secs, Reason: reason, ErrorBound: bound}
		}
		if extras&2 != 0 {
			b.cost = &obs.CostReport{Op: reason, DurationSeconds: secs, ModeledBytes: int64(len(raw)), Tiers: map[string]obs.TierCost{reason: {Reads: 1, Bytes: int64(level)}}, ErrorBound: bound, DegradedReason: reason}
		}

		want, wantErr := oracleBody(b)
		rec := httptest.NewRecorder()
		err := writeView(rec, b)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("writeView err %v, encoding/json err %v", err, wantErr)
		}
		if err != nil {
			if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
				t.Fatalf("refused view wrote %d body bytes and headers %v", rec.Body.Len(), rec.Header())
			}
			return
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("body differs from encoding/json:\n got %q\nwant %q", got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, len(want))
		}

		rec = httptest.NewRecorder()
		if err := writeSSE(rec, nil, "view", b.appendTo); err != nil {
			t.Fatal(err)
		}
		sse := "event: view\ndata: " + string(bytes.TrimSuffix(want, []byte("\n"))) + "\n\n"
		if got := rec.Body.String(); got != sse {
			t.Fatalf("SSE event differs from encoding/json:\n got %q\nwant %q", got, sse)
		}
	})
}

// discardWriter is a ResponseWriter that drops the body, so the benchmark
// times encoding and not a recorder's copy.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkViewBody times a view body from View.Data to the ResponseWriter:
// the appender against the encoding/json path it replaced (the oracle
// structs, with the []float64 copied to bytes first). The whole view is a
// plane-sized level 0 (33 rings of 640 vertices, 21,120 values); the
// region view has its have mask with about a quarter of it restored. Both
// carry a cost bill like a served read's.
func BenchmarkViewBody(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 21120)
	have := make([]bool, len(vals))
	restored := 0
	for i := range vals {
		vals[i] = math.Sin(float64(i)/97) + 1e-3*rng.NormFloat64()
		if have[i] = rng.Intn(4) == 0; have[i] {
			restored++
		}
	}
	cost := &obs.CostReport{Op: "server.read", DurationSeconds: 4.2e-4, ModeledBytes: 96512, RealBytes: 96512,
		IOSeconds: 1.1e-4, DecompressSecs: 2.3e-4, CacheHits: 12, Tiers: map[string]obs.TierCost{"lustre": {Reads: 12, Bytes: 96512}}}
	bodies := map[string]*viewBody{
		"view":   {name: "dpot-00", levels: 4, errorBound: 3.5e-5, numVerts: len(vals), data: vals, cost: cost},
		"region": {name: "dpot-00", errorBound: 3.5e-5, numVerts: len(vals), data: vals, region: true, restored: restored, have: have, cost: cost},
	}
	for _, kind := range []string{"view", "region"} {
		body := bodies[kind]
		want, err := oracleBody(body)
		if err != nil {
			b.Fatal(err)
		}
		w := &discardWriter{h: http.Header{}}
		b.Run(kind+"/append", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := writeView(w, body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(kind+"/encoding_json", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				if err := json.NewEncoder(w).Encode(oraclePayload(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
