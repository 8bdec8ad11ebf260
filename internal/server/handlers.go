package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

// statusClientClosed is the nonstandard (nginx-convention) status for a
// request whose client went away; it is never written to the wire, only
// used internally to suppress the error response.
const statusClientClosed = 499

// apiError carries an HTTP status code with a handler error.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errCode(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.code
	case errors.Is(err, core.ErrBadRegion):
		return http.StatusBadRequest
	case errors.Is(err, storage.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON answers with v's JSON, marshalled before the header goes out:
// a value JSON cannot carry (a NaN or an infinity) is answered with a 500.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, code, append(body, '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg, "status": code})
}

// writeThrottle writes the 429 backpressure response: a machine-readable
// body plus the standard Retry-After header (whole seconds, rounded up).
func writeThrottle(w http.ResponseWriter, after time.Duration, msg string) {
	secs := int(math.Ceil(after.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":               msg,
		"status":              http.StatusTooManyRequests,
		"retry_after_seconds": secs,
	})
}

func tenantName(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// handler is a guarded endpoint body: it runs with the tenant admitted and
// a slot held, under a context carrying the server-owned obs request. fin
// freezes and returns the request's cost bill (idempotent), so handlers can
// embed the bill in their response before guard charges it to the tenant.
type handler func(w http.ResponseWriter, r *http.Request, sh *shard, fin func() *obs.CostReport) error

// guard wraps an endpoint with the full request protocol: accounting,
// quota, admission, tracing, cost attribution, error mapping and panic
// recovery.
func (s *Server) guard(op string, fn handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := tenantName(r)
		if ok, after := s.tenants.take(tenant); !ok {
			s.tenants.throttled(tenant)
			evThrottled.Emit("reason", "quota", "tenant", tenant, "op", op)
			writeThrottle(w, after, "tenant quota exhausted")
			return
		}
		release, after, ok := s.admit.acquire(r.Context())
		if !ok {
			if r.Context().Err() != nil {
				return // client gone while queued; nothing to write
			}
			s.tenants.throttled(tenant)
			evThrottled.Emit("reason", "admission", "tenant", tenant, "op", op)
			writeThrottle(w, after, "server saturated, retry later")
			return
		}
		defer release()

		// Each request is its own trace; the server owns the obs request,
		// so every nested core/storage/adios cost folds into one bill.
		ctx, span := obs.Trace(r.Context(), "server."+op)
		defer span.End()
		span.SetAttr("tenant", tenant)
		ctx, req, _ := obs.BeginRequest(ctx, "server."+op)

		start := time.Now()
		var rep *obs.CostReport
		fin := func() *obs.CostReport {
			if rep == nil {
				rep = req.Report(span)
			}
			return rep
		}
		// The bill, latency and error answer are settled in one deferred
		// step, so a panicking body is charged and recorded like any other
		// failure. The response writers set Content-Type before any byte
		// goes out: without it nothing was written and a panic can still
		// answer 500; with it a partial body is out, and ErrAbortHandler
		// makes net/http cut the connection rather than let it look
		// complete.
		var err error
		defer func() {
			p := recover()
			fin()
			obs.ObserveLatency(metricLatency, span, time.Since(start).Seconds())
			s.tenants.charge(tenant, rep, err != nil || p != nil)
			switch {
			case p != nil:
				evHandlerPanic.Emit("op", op, "tenant", tenant, "panic", fmt.Sprint(p))
				if w.Header().Get("Content-Type") != "" {
					panic(http.ErrAbortHandler)
				}
				httpError(w, http.StatusInternalServerError, "internal error")
			case err != nil:
				if code := errCode(err); code != statusClientClosed {
					httpError(w, code, err.Error())
				}
			}
		}()
		err = fn(w, r.WithContext(ctx), s.shardFor(r.PathValue("name")), fin)
	}
}

// handleRead serves GET /v1/read/{name}?level=N or ?tolerance=eps: a full
// progressive retrieval to a level (default: full accuracy, level 0) or to
// the cheapest level meeting an absolute error target.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request, sh *shard, fin func() *obs.CostReport) error {
	ctx := r.Context()
	name := r.PathValue("name")
	rd, err := sh.reader(ctx, name)
	if err != nil {
		return err
	}
	q := r.URL.Query()
	var v *core.View
	if ts := q.Get("tolerance"); ts != "" {
		eps, err := strconv.ParseFloat(ts, 64)
		if err != nil || eps <= 0 || math.IsNaN(eps) {
			return badRequest("tolerance %q: want a positive float", ts)
		}
		v, err = rd.RetrieveToTolerance(ctx, eps)
		if err != nil {
			return err
		}
	} else {
		level := 0
		if ls := q.Get("level"); ls != "" {
			level, err = strconv.Atoi(ls)
			if err != nil {
				return badRequest("level %q: %v", ls, err)
			}
		}
		if level < 0 || level >= rd.Levels() {
			return badRequest("level %d out of range [0,%d)", level, rd.Levels())
		}
		v, err = rd.Retrieve(ctx, level)
		if err != nil {
			return err
		}
	}
	return writeView(w, &viewBody{
		name: name, level: v.Level, levels: rd.Levels(), errorBound: v.ErrorBound,
		numVerts: v.Mesh.NumVerts(), data: v.Data, deg: v.Degradation, cost: fin(),
	})
}

// handleRegion serves GET /v1/region/{name}?level=N&minx=&miny=&maxx=&maxy=:
// a focused retrieval restoring only the vertices inside the region.
func (s *Server) handleRegion(w http.ResponseWriter, r *http.Request, sh *shard, fin func() *obs.CostReport) error {
	ctx := r.Context()
	name := r.PathValue("name")
	rd, err := sh.reader(ctx, name)
	if err != nil {
		return err
	}
	q := r.URL.Query()
	level := 0
	if ls := q.Get("level"); ls != "" {
		if level, err = strconv.Atoi(ls); err != nil {
			return badRequest("level %q: %v", ls, err)
		}
	}
	if level < 0 || level >= rd.Levels() {
		return badRequest("level %d out of range [0,%d)", level, rd.Levels())
	}
	coords := make([]float64, 4)
	for i, key := range []string{"minx", "miny", "maxx", "maxy"} {
		s := q.Get(key)
		if s == "" {
			return badRequest("missing region coordinate %q", key)
		}
		if coords[i], err = strconv.ParseFloat(s, 64); err != nil {
			return badRequest("%s=%q: %v", key, s, err)
		}
	}
	rv, err := rd.RetrieveRegion(ctx, level, coords[0], coords[1], coords[2], coords[3])
	if err != nil {
		return err
	}
	return writeView(w, &viewBody{
		name: name, level: rv.Level, errorBound: rv.ErrorBound, numVerts: rv.Mesh.NumVerts(),
		data: rv.Data, region: true, restored: rv.CountHave(), have: rv.Have,
		deg: rv.Degradation, cost: fin(),
	})
}

// handleStream serves GET /v1/stream/{name}?tolerance=eps as Server-Sent
// Events: one "view" event per accuracy level as the stream refines toward
// eps, then a terminal "end" event carrying the whole stream's cost bill.
// A client that disconnects mid-stream cancels the underlying Subscribe —
// the request context is the subscription context.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, sh *shard, fin func() *obs.CostReport) error {
	ctx := r.Context()
	name := r.PathValue("name")
	rd, err := sh.reader(ctx, name)
	if err != nil {
		return err
	}
	ts := r.URL.Query().Get("tolerance")
	if ts == "" {
		return badRequest("stream requires ?tolerance=")
	}
	eps, err := strconv.ParseFloat(ts, 64)
	if err != nil || eps <= 0 || math.IsNaN(eps) {
		return badRequest("tolerance %q: want a positive float", ts)
	}
	ch, err := rd.Subscribe(ctx, eps)
	if err != nil {
		return badRequest("subscribe: %v", err)
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	for v := range ch {
		b := &viewBody{
			name: name, level: v.Level, levels: rd.Levels(), errorBound: v.ErrorBound,
			numVerts: v.Mesh.NumVerts(), data: v.Data, deg: v.Degradation,
		}
		if writeSSE(w, fl, "view", b.appendTo) != nil {
			// The write path is dead (client gone) or the view cannot be
			// encoded; keep draining so the stream goroutine observes ctx
			// cancellation and exits.
			continue
		}
	}
	if ctx.Err() != nil {
		return nil // disconnected mid-stream; nothing more to say
	}
	_ = writeSSE(w, fl, "end", func(buf []byte) ([]byte, error) {
		data, err := json.Marshal(map[string]any{"cost": fin()})
		return append(buf, data...), err
	})
	return nil
}

// writeSSE writes one event, its data line appended by appendData, in one
// Write.
func writeSSE(w http.ResponseWriter, fl http.Flusher, event string, appendData func([]byte) ([]byte, error)) error {
	return withBody(func(buf []byte) ([]byte, error) {
		buf = append(buf, "event: "...)
		buf = append(buf, event...)
		buf = append(buf, "\ndata: "...)
		buf, err := appendData(buf)
		if err != nil {
			return buf, err
		}
		buf = append(buf, "\n\n"...)
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		if fl != nil {
			fl.Flush()
		}
		return buf, nil
	})
}
