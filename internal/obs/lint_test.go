package obs_test

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"

	// Import every instrumented package so its metric and event
	// registrations run; the lints below then cover the real process-wide
	// sets.
	_ "repro/internal/adios"
	_ "repro/internal/core"
	_ "repro/internal/place"
	_ "repro/internal/server"
	"repro/internal/storage"
)

// Metric names follow canopus_<subsystem>_<name>, where subsystem is the
// internal package that owns the instrument. DESIGN.md §8 documents the
// convention; this test enforces it for every registered metric.
var (
	namePattern = regexp.MustCompile(`^canopus_[a-z0-9]+(_[a-z0-9]+)+$`)
	subsystems  = map[string]bool{
		"storage": true,
		"core":    true,
		"place":   true,
		"server":  true,
		"obs":     true, // obs's own tests register under this subsystem
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

// metricReaders is the whole process-wide metric set, each name with what
// reads it: a test asserting on its value or registration, a benchmark
// file, an SLO objective or a README section. A metric nobody reads is cost,
// so TestMetricReaders fails on any registered name missing here: a new
// metric arrives with its reader. <tier> stands for any tier-name segment.
var metricReaders = map[string]string{
	"canopus_core_retrieve_seconds":        "SLO objective; core.TestObservabilityEndToEnd (exemplar); README Operating Canopus",
	"canopus_core_retrieve_region_seconds": "SLO objective",
	"canopus_core_retrieve_step_seconds":   "SLO objective",
	"canopus_core_subscribe_seconds":       "obs.TestCoreLatencyHistogramsRegistered (the /debug/slo histogram of Subscribe)",
	"canopus_core_write_seconds":           "SLO objective",
	"canopus_server_request_seconds":       "SLO objective; README Serving Canopus (/debug/slo)",

	"canopus_place_cycles_total":      "obs.TestPlaceMetricsRegistered (the promoter's activity)",
	"canopus_place_promotions_total":  "obs.TestPlaceMetricsRegistered (the promoter's activity)",
	"canopus_place_demotions_total":   "obs.TestPlaceMetricsRegistered (the promoter's activity)",
	"canopus_place_moved_bytes_total": "obs.TestPlaceMetricsRegistered (the promoter's activity)",
	"canopus_place_move_errors_total": "obs.TestPlaceMetricsRegistered (the promoter's activity)",
	"canopus_place_touches_total":     "obs.TestPlaceMetricsRegistered (the promoter's activity)",

	"canopus_storage_migrations_total":         "benchmark/serve.go (place.migrations)",
	"canopus_storage_read_retries_total":       "core.TestObservabilityEndToEnd",
	"canopus_storage_<tier>_read_bytes_total":  "core.TestObservabilityEndToEnd; storage.TestTierCountersTrackTraffic; README Profiling & metrics",
	"canopus_storage_<tier>_read_ops_total":    "core.TestObservabilityEndToEnd; storage.TestTierCountersTrackTraffic",
	"canopus_storage_<tier>_write_bytes_total": "storage.TestTierCountersTrackTraffic",
	"canopus_storage_<tier>_write_ops_total":   "storage.TestTierCountersTrackTraffic",
}

// readerEntry returns the metricReaders key covering name: the name itself,
// or a <tier> template it instantiates.
func readerEntry(name string) (string, bool) {
	if _, ok := metricReaders[name]; ok {
		return name, true
	}
	for entry := range metricReaders {
		prefix, suffix, ok := strings.Cut(entry, "<tier>")
		if ok && len(name) > len(prefix)+len(suffix) &&
			strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			return entry, true
		}
	}
	return "", false
}

// TestMetricReaders checks the registered metric set against metricReaders
// in both directions: every registered name has a reader, and every listed
// metric is registered — so a refactor that drops an instrument someone
// reads fails here too.
func TestMetricReaders(t *testing.T) {
	storage.TitanTwoTier(0) // registers the per-tier counters
	seen := make(map[string]bool)
	for _, name := range obs.Default.Names() {
		if strings.HasPrefix(name, "canopus_obs_") {
			continue // fixtures of obs's own tests
		}
		entry, ok := readerEntry(name)
		if !ok {
			t.Errorf("metric %q has no reader: add it to metricReaders with its reader, or delete it", name)
			continue
		}
		seen[entry] = true
	}
	for entry := range metricReaders {
		if !seen[entry] {
			t.Errorf("metric %q is not registered", entry)
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

// eventReaders is the whole registered event taxonomy, each type with the
// test that asserts on its emission. An event nobody reads is cost on its
// emit path, so TestEventReaders fails on any registered type missing here:
// a new event arrives with its reader.
var eventReaders = map[string]string{
	"degradation":     "core.TestDegradationEventAndCost",
	"fault_injected":  "storage.TestFaultAndCorruptionEvents",
	"corruption":      "storage.TestFaultAndCorruptionEvents",
	"retry":           "storage.TestRetryEventChainAndRequestAttribution",
	"retry_exhausted": "storage.TestRetryExhaustedEvent",
	"migration":       "storage.TestMigrationEvents",
	"promotion":       "storage.TestMigrationEvents",
	"demotion":        "storage.TestMigrationEvents",
	"throttled":       "server.TestQuotaExhaustion (reason=quota)",
	"handler_panic":   "server.TestGuardRecoversPanic",
}

// TestEventReaders checks the registered event types against eventReaders
// in both directions, as TestMetricReaders does for metrics.
func TestEventReaders(t *testing.T) {
	registered := make(map[string]bool)
	for _, name := range obs.EventTypes() {
		if strings.HasPrefix(name, "obs_test_") {
			continue // fixtures of obs's own tests
		}
		registered[name] = true
		if _, ok := eventReaders[name]; !ok {
			t.Errorf("event type %q has no reader: add it to eventReaders with its reader, or delete it", name)
		}
	}
	for name := range eventReaders {
		if !registered[name] {
			t.Errorf("event type %q is not registered", name)
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

// Counters are totals and end in _total; histograms are distributions and
// keep a bare _seconds suffix.
func TestMetricSuffixConvention(t *testing.T) {
	for _, name := range obs.Default.Names() {
		ok := strings.HasSuffix(name, "_total") ||
			strings.HasSuffix(name, "_seconds")
		if !ok {
			t.Errorf("metric %q has no conventional suffix (_total, _seconds)", name)
		}
	}
}
