package obs

import "sort"

// Names lists every registered metric name, sorted. The metric lints walk
// it.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Op reports the operation name the request was opened under. Only tests
// read it; programs see the name in the CostReport's Op field.
func (r *Request) Op() string {
	if r == nil {
		return ""
	}
	return r.op
}
