package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"
)

// Tenant is one API-key principal with its admission quotas. Quotas are
// enforced before engine admission: a rate-limited or over-budget request
// never occupies a queue slot or a VM worker.
type Tenant struct {
	// Key is the API key presented in the Authorization: Bearer header
	// (or X-API-Key). Required, and must be unique across tenants.
	Key string `json:"key"`
	// Name identifies the tenant in errors and (future) per-tenant
	// metrics; defaults to the key's first 8 characters.
	Name string `json:"name,omitempty"`
	// RatePerSec caps sustained request rate via a token bucket; zero
	// means unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth (instantaneous burst allowance); zero
	// defaults to max(1, ceil(RatePerSec)).
	Burst float64 `json:"burst,omitempty"`
	// MaxStepBudget caps the interpreter step budget any one run may
	// request. Requests asking for more (or for the unlimited default of
	// zero) are clamped down to it; zero means no cap.
	MaxStepBudget int64 `json:"max_step_budget,omitempty"`
}

// LoadTenants reads a tenants file: a JSON array of Tenant objects.
func LoadTenants(path string) ([]Tenant, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ts []Tenant
	if err := json.Unmarshal(raw, &ts); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	seen := make(map[string]bool, len(ts))
	for i := range ts {
		if ts[i].Key == "" {
			return nil, fmt.Errorf("tenants file %s: tenant %d has no key", path, i)
		}
		if seen[ts[i].Key] {
			return nil, fmt.Errorf("tenants file %s: duplicate key %q", path, ts[i].Key)
		}
		seen[ts[i].Key] = true
		if ts[i].Name == "" {
			n := ts[i].Key
			if len(n) > 8 {
				n = n[:8]
			}
			ts[i].Name = n
		}
	}
	return ts, nil
}

// tokenBucket is a minimal leaky-bucket rate limiter (no external deps):
// tokens refill continuously at rate/sec up to burst; each admitted
// request spends one.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst <= 0 {
		burst = rate
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

func (b *tokenBucket) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// tenantState pairs a tenant with its live limiter.
type tenantState struct {
	Tenant
	bucket *tokenBucket // nil when RatePerSec is zero (unlimited)
}

// auth owns the tenant table. With no tenants configured the service runs
// open (no key required, no quotas) — single-user and test deployments
// keep their zero-config workflow.
type auth struct {
	tenants map[string]*tenantState // by key
	now     func() time.Time        // injectable clock for tests
}

func newAuth(tenants []Tenant) *auth {
	a := &auth{now: time.Now}
	if len(tenants) == 0 {
		return a
	}
	a.tenants = make(map[string]*tenantState, len(tenants))
	for _, t := range tenants {
		st := &tenantState{Tenant: t}
		if t.RatePerSec > 0 {
			st.bucket = newTokenBucket(t.RatePerSec, t.Burst)
		}
		a.tenants[t.Key] = st
	}
	return a
}

func (a *auth) open() bool { return a.tenants == nil }

// apiKey extracts the presented key: "Authorization: Bearer <key>" wins,
// "X-API-Key: <key>" is the curl-friendly fallback.
func apiKey(r *http.Request) string {
	const prefix = "Bearer "
	if h := r.Header.Get("Authorization"); len(h) > len(prefix) && h[:len(prefix)] == prefix {
		return h[len(prefix):]
	}
	return r.Header.Get("X-API-Key")
}

// admit authenticates and rate-limits the request. It returns the tenant
// (nil in open mode) and whether the request may proceed; on refusal the
// response has already been written.
func (a *auth) admit(w http.ResponseWriter, r *http.Request) (*tenantState, bool) {
	if a.open() {
		return nil, true
	}
	key := apiKey(r)
	if key == "" {
		writeError(w, http.StatusUnauthorized, KindUnauthorized,
			"missing API key (Authorization: Bearer <key> or X-API-Key)")
		return nil, false
	}
	t, ok := a.tenants[key]
	if !ok {
		writeError(w, http.StatusForbidden, KindForbidden, "unknown API key")
		return nil, false
	}
	if t.bucket != nil && !t.bucket.allow(a.now()) {
		writeError(w, http.StatusTooManyRequests, KindRateLimited,
			"tenant %s over its rate limit (%g/s)", t.Name, t.RatePerSec)
		return nil, false
	}
	return t, true
}

// clampStepBudget applies the tenant's step-budget quota to a requested
// budget (0 = unlimited request). Open mode and quota-free tenants pass
// the request through.
func (t *tenantState) clampStepBudget(requested int64) int64 {
	if t == nil || t.MaxStepBudget <= 0 {
		return requested
	}
	if requested <= 0 || requested > t.MaxStepBudget {
		return t.MaxStepBudget
	}
	return requested
}
