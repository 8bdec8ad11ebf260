package obs

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Structured event flight recorder. Metrics answer "how much, in total";
// traces answer "how long, for one call"; neither answers "what happened,
// in order" — which fault was injected, which retrieval degraded, which key
// migrated where. Events are that durable record: a bounded, lock-cheap
// ring of typed, timestamped, attributed records emitted at the existing
// decision points in storage, placement, and core, queryable live via
// /debug/events and dumped on exit by -metrics-json.
//
// Event types are registered up front (RegisterEventType), exactly like
// metrics: emitting through an unregistered type is impossible by
// construction, and the naming lint in lint_test.go walks the registered
// set. Type names are lowercase snake_case ([a-z][a-z0-9_]*).

// Event is one recorded occurrence. Seq is a process-wide monotonically
// increasing sequence number (1-based); /debug/events?since=N returns only
// events with Seq > N, so a poller can tail the ring without re-reading.
type Event struct {
	Seq          uint64            `json:"seq"`
	TimeUnixNano int64             `json:"time_unix_nano"`
	Type         string            `json:"type"`
	Attrs        map[string]string `json:"attrs,omitempty"`
}

// EventType is a handle for emitting events of one registered type.
// The zero value is invalid; obtain one from RegisterEventType.
type EventType struct{ name string }

// Name reports the registered type name.
func (t EventType) Name() string { return t.name }

var eventNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// ValidEventType reports whether name follows the event naming convention.
func ValidEventType(name string) error {
	if !eventNameRE.MatchString(name) {
		return fmt.Errorf("obs: event type %q violates [a-z][a-z0-9_]* naming", name)
	}
	return nil
}

var (
	evTypesMu sync.Mutex
	evTypes   = map[string]bool{}
)

// RegisterEventType registers (idempotently) an event type name and returns
// its emit handle. An invalid name panics — a programming error the naming
// lint surfaces, same as metric registration.
func RegisterEventType(name string) EventType {
	if err := ValidEventType(name); err != nil {
		panic(err)
	}
	evTypesMu.Lock()
	evTypes[name] = true
	evTypesMu.Unlock()
	return EventType{name: name}
}

// EventTypes lists every registered event type name, sorted. The naming
// lint iterates this to enforce the taxonomy.
func EventTypes() []string {
	evTypesMu.Lock()
	defer evTypesMu.Unlock()
	out := make([]string, 0, len(evTypes))
	for k := range evTypes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DefaultEventRetention is how many events the flight recorder retains when
// SetEventRetention has not chosen otherwise.
const DefaultEventRetention = 256

var (
	// evSeq is the last assigned sequence number. It advances only under
	// evMu, so ring order is sequence order; it is atomic so LastEventSeq
	// can read it without the lock.
	evSeq atomic.Uint64

	evMu  sync.Mutex
	evBuf []Event // ring storage; len(evBuf) < evCap means it has not wrapped
	evCap = DefaultEventRetention
	evPos int // next write index once the ring is full (oldest entry)
)

// Emit records one event with the given attribute key/value pairs (a
// trailing unpaired key gets an empty value). The hot-path cost is one
// short critical section appending into a preallocated ring — no
// allocation once the ring has filled its retention.
func (t EventType) Emit(attrs ...string) {
	if t.name == "" {
		return
	}
	var m map[string]string
	if len(attrs) > 0 {
		m = make(map[string]string, (len(attrs)+1)/2)
		for i := 0; i < len(attrs); i += 2 {
			v := ""
			if i+1 < len(attrs) {
				v = attrs[i+1]
			}
			m[attrs[i]] = v
		}
	}
	e := Event{
		TimeUnixNano: time.Now().UnixNano(),
		Type:         t.name,
		Attrs:        m,
	}
	evMu.Lock()
	// Taking the number inside the critical section is what keeps the ring
	// in sequence order: taken before it, two emitters could insert out of
	// order and a since= poller would skip the late one for good.
	e.Seq = evSeq.Add(1)
	if len(evBuf) < evCap {
		evBuf = append(evBuf, e)
	} else {
		evBuf[evPos] = e
		evPos = (evPos + 1) % evCap
	}
	evMu.Unlock()
}

// SetEventRetention bounds the flight recorder to the most recent n events
// (n <= 0 restores DefaultEventRetention). Already-recorded events are kept,
// newest first, up to the new bound.
func SetEventRetention(n int) {
	if n <= 0 {
		n = DefaultEventRetention
	}
	evMu.Lock()
	defer evMu.Unlock()
	cur := snapshotLocked()
	if len(cur) > n {
		cur = cur[len(cur)-n:]
	}
	evCap = n
	evBuf = append(make([]Event, 0, min(n, len(cur)+16)), cur...)
	// cur is oldest-first, so whenever the ring is (or later becomes) full
	// its oldest entry is slot 0.
	evPos = 0
}

// snapshotLocked returns retained events oldest-first. Caller holds evMu.
func snapshotLocked() []Event {
	out := make([]Event, 0, len(evBuf))
	if len(evBuf) < evCap {
		return append(out, evBuf...)
	}
	for i := 0; i < len(evBuf); i++ {
		out = append(out, evBuf[(evPos+i)%len(evBuf)])
	}
	return out
}

// Events returns retained events oldest-first, filtered: types, when
// non-empty, restricts to those type names; sinceSeq > 0 returns only
// events with Seq > sinceSeq.
func Events(types []string, sinceSeq uint64) []Event {
	var want map[string]bool
	if len(types) > 0 {
		want = make(map[string]bool, len(types))
		for _, t := range types {
			if t != "" {
				want[t] = true
			}
		}
		if len(want) == 0 {
			want = nil
		}
	}
	evMu.Lock()
	all := snapshotLocked()
	evMu.Unlock()
	out := make([]Event, 0, len(all))
	for _, e := range all {
		if e.Seq <= sinceSeq {
			continue
		}
		if want != nil && !want[e.Type] {
			continue
		}
		out = append(out, e)
	}
	return out
}

// LastEventSeq reports the most recently assigned event sequence number (0
// when nothing has been emitted). Tests snapshot it before a workload and
// pass it as sinceSeq to isolate the workload's events.
func LastEventSeq() uint64 { return evSeq.Load() }

// ResetEvents clears the retained events (the sequence counter keeps
// counting, so since-cursors held across a reset stay monotonic).
func ResetEvents() {
	evMu.Lock()
	evBuf = evBuf[:0]
	evPos = 0
	evMu.Unlock()
}
