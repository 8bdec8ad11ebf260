package server

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Bill is one tenant's accumulated usage: request outcomes plus the cost
// totals folded out of every request's CostReport — the same modeled/real
// byte split and per-tier attribution the library returns on View.Cost,
// aggregated per paying tenant.
type Bill struct {
	Requests     int64   `json:"requests"`
	Throttled    int64   `json:"throttled"`
	Errors       int64   `json:"errors"`
	ModeledBytes int64   `json:"modeled_bytes"`
	RealBytes    int64   `json:"real_bytes"`
	IOSeconds    float64 `json:"io_seconds"`
	// TierReads/TierBytes attribute backend reads per storage tier, so a
	// tenant's bill distinguishes cheap tmpfs hits from contended PFS pulls.
	TierReads map[string]int64 `json:"tier_reads,omitempty"`
	TierBytes map[string]int64 `json:"tier_bytes,omitempty"`
}

// TenantStatus is one row of /v1/tenants: the bill plus quota state.
type TenantStatus struct {
	Tenant string  `json:"tenant"`
	Quota  *Quota  `json:"quota,omitempty"`
	Tokens float64 `json:"tokens,omitempty"`
	Bill   Bill    `json:"bill"`
}

// tenantState is one tenant's live accounting: a lazily refilled token
// bucket (quota == nil means unlimited) and the running bill.
type tenantState struct {
	quota  *Quota
	tokens float64
	last   time.Time
	bill   Bill
}

// Tenant names arrive in a client-supplied header, so the table bounds what
// they can make it hold: a name longer than maxTenantName, or a new name
// once maxTenantRows unconfigured tenants have rows, is billed to the
// overflowTenant row. Tenants with a configured quota always keep their own
// row.
const (
	maxTenantName  = 64
	maxTenantRows  = 256
	overflowTenant = "_overflow"
)

// tenantTable maps tenant names to state, creating rows on first sight.
type tenantTable struct {
	mu     sync.Mutex
	quotas map[string]Quota
	m      map[string]*tenantState
	// unconfigured counts the rows of tenants without a configured quota,
	// the overflow row excluded.
	unconfigured int
}

func newTenantTable(quotas map[string]Quota) *tenantTable {
	t := &tenantTable{quotas: map[string]Quota{}, m: map[string]*tenantState{}}
	for k, v := range quotas {
		t.quotas[k] = v
	}
	return t
}

// getLocked returns (creating if needed) the state row name is billed to.
// Caller holds mu.
func (t *tenantTable) getLocked(name string, now time.Time) *tenantState {
	if ts := t.m[name]; ts != nil {
		return ts
	}
	q, configured := t.quotas[name]
	if !configured {
		if len(name) > maxTenantName || t.unconfigured >= maxTenantRows {
			name = overflowTenant
			if ts := t.m[name]; ts != nil {
				return ts
			}
		} else {
			t.unconfigured++
		}
	}
	ts := &tenantState{last: now}
	if configured && (q.Rate > 0 || q.Burst > 0) {
		ts.quota = &q
		ts.tokens = q.Burst
	}
	t.m[name] = ts
	return ts
}

// take spends one token from name's bucket. It returns ok=false with the
// duration after which a retry will find a token when the bucket is empty.
func (t *tenantTable) take(name string) (ok bool, retryAfter time.Duration) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.getLocked(name, now)
	if ts.quota == nil {
		return true, 0
	}
	// Lazy refill since the last draw, capped at burst.
	elapsed := now.Sub(ts.last).Seconds()
	ts.last = now
	ts.tokens = min(ts.quota.Burst, ts.tokens+elapsed*ts.quota.Rate)
	if ts.tokens >= 1 {
		ts.tokens--
		return true, 0
	}
	if ts.quota.Rate <= 0 {
		// Unrefillable bucket: the deficit never clears; advise a long wait.
		return false, time.Minute
	}
	deficit := 1 - ts.tokens
	return false, time.Duration(deficit / ts.quota.Rate * float64(time.Second))
}

// throttled counts one 429 against name.
func (t *tenantTable) throttled(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.getLocked(name, time.Now()).bill.Throttled++
}

// charge folds one finished request's bill into name's account. rep may be
// nil (the request failed before any cost accrued); failed counts the
// request as an error either way.
func (t *tenantTable) charge(name string, rep *obs.CostReport, failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.getLocked(name, time.Now())
	ts.bill.Requests++
	if failed {
		ts.bill.Errors++
	}
	if rep == nil {
		return
	}
	ts.bill.ModeledBytes += rep.ModeledBytes
	ts.bill.RealBytes += rep.RealBytes
	ts.bill.IOSeconds += rep.IOSeconds
	for tier, tc := range rep.Tiers {
		if ts.bill.TierReads == nil {
			ts.bill.TierReads = map[string]int64{}
			ts.bill.TierBytes = map[string]int64{}
		}
		ts.bill.TierReads[tier] += tc.Reads
		ts.bill.TierBytes[tier] += tc.Bytes
	}
}

// snapshot returns every tenant's status, name-sorted.
func (t *tenantTable) snapshot() []TenantStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TenantStatus, 0, len(t.m))
	for name, ts := range t.m {
		st := TenantStatus{Tenant: name, Bill: ts.bill}
		if ts.quota != nil {
			q := *ts.quota
			st.Quota = &q
			st.Tokens = ts.tokens
		}
		// Deep-copy the tier maps so the caller can serialize lock-free.
		if ts.bill.TierReads != nil {
			st.Bill.TierReads = map[string]int64{}
			st.Bill.TierBytes = map[string]int64{}
			for k, v := range ts.bill.TierReads {
				st.Bill.TierReads[k] = v
			}
			for k, v := range ts.bill.TierBytes {
				st.Bill.TierBytes[k] = v
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
