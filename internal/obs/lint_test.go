package obs_test

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"

	// Import every instrumented package so its metric registrations run;
	// the lint below then covers the real process-wide metric set.
	_ "repro/internal/adios"
	_ "repro/internal/core"
	_ "repro/internal/engine"
	_ "repro/internal/place"
	_ "repro/internal/plan"
	_ "repro/internal/server"
	_ "repro/internal/storage"
)

// Metric names follow canopus_<subsystem>_<name>, where subsystem is the
// internal package that owns the instrument. DESIGN.md §8 documents the
// convention; this test enforces it for every registered metric.
var (
	namePattern = regexp.MustCompile(`^canopus_[a-z0-9]+(_[a-z0-9]+)+$`)
	subsystems  = map[string]bool{
		"engine":   true,
		"storage":  true,
		"adios":    true,
		"core":     true,
		"compress": true,
		"plan":     true,
		"place":    true,
		"server":   true,
		"obs":      true, // obs's own tests register under this subsystem
	}
)

func TestMetricNamingConvention(t *testing.T) {
	names := obs.Default.Names()
	if len(names) == 0 {
		t.Fatal("no metrics registered")
	}
	for _, name := range names {
		if !namePattern.MatchString(name) {
			t.Errorf("metric %q does not match %s", name, namePattern)
			continue
		}
		sub := strings.SplitN(name, "_", 3)[1]
		if !subsystems[sub] {
			t.Errorf("metric %q: unregistered subsystem prefix %q (add the owning package to the subsystems allowlist)", name, sub)
		}
	}
}

// The placement layer must register its canopus_place_* instruments so the
// promoter's activity is observable; a refactor that drops them would
// otherwise pass the naming lint vacuously.
func TestPlaceMetricsRegistered(t *testing.T) {
	want := []string{
		"canopus_place_cycles_total",
		"canopus_place_promotions_total",
		"canopus_place_demotions_total",
		"canopus_place_moved_bytes_total",
		"canopus_place_move_errors_total",
		"canopus_place_touches_total",
	}
	names := make(map[string]bool)
	for _, n := range obs.Default.Names() {
		names[n] = true
	}
	for _, w := range want {
		if !names[w] {
			t.Errorf("metric %q not registered", w)
		}
	}
}

// Event type names are lowercase snake_case, enforced over every type the
// instrumented packages register — the same walk the metric lint does.
func TestEventTypeNamingConvention(t *testing.T) {
	types := obs.EventTypes()
	if len(types) == 0 {
		t.Fatal("no event types registered")
	}
	for _, name := range types {
		if err := obs.ValidEventType(name); err != nil {
			t.Errorf("registered event type fails its own lint: %v", err)
		}
	}
}

// The flight-recorder taxonomy DESIGN.md §13 documents must actually be
// registered by the instrumented packages; a refactor that drops an emit
// site's registration would otherwise pass the naming lint vacuously.
func TestEventTaxonomyRegistered(t *testing.T) {
	want := []string{
		"degradation",
		"fault_injected",
		"retry",
		"retry_exhausted",
		"migration",
		"promotion",
		"demotion",
		"corruption",
		"cache_evict",
	}
	have := make(map[string]bool)
	for _, n := range obs.EventTypes() {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("event type %q not registered", w)
		}
	}
}

// The SLO surface's per-operation latency histograms must be registered so
// /debug/slo has something to evaluate.
func TestCoreLatencyHistogramsRegistered(t *testing.T) {
	want := []string{
		"canopus_core_retrieve_seconds",
		"canopus_core_retrieve_region_seconds",
		"canopus_core_retrieve_step_seconds",
		"canopus_core_subscribe_seconds",
		"canopus_core_write_seconds",
	}
	names := make(map[string]bool)
	for _, n := range obs.Default.Names() {
		names[n] = true
	}
	for _, w := range want {
		if !names[w] {
			t.Errorf("latency histogram %q not registered", w)
		}
	}
}

// Counters and histograms are totals/distributions and end in _total or
// _seconds; gauges are instantaneous levels and must not claim to be
// totals. The seconds histograms keep a bare _seconds suffix.
func TestMetricSuffixConvention(t *testing.T) {
	for _, name := range obs.Default.Names() {
		ok := strings.HasSuffix(name, "_total") ||
			strings.HasSuffix(name, "_seconds") ||
			strings.HasSuffix(name, "_depth") ||
			strings.HasSuffix(name, "_inflight") ||
			strings.HasSuffix(name, "_bytes")
		if !ok {
			t.Errorf("metric %q has no conventional suffix (_total, _seconds, _bytes, _depth, _inflight)", name)
		}
	}
}
