package serve

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/umesh"
)

// errMemoAbandoned marks an entry whose leader failed or was rejected
// downstream before producing a result; waiters retry the memo and the slot
// is already removed.
var errMemoAbandoned = errors.New("serve: memo leader abandoned")

// memoKey identifies one memoizable solve: the scenario's canonical key and
// the solve-relevant payload on it.
type memoKey struct {
	scenario string
	payload  string
}

// memoEntry is one result-memo slot. The first request for a key (the
// leader) creates it unready and owes a publish or abandon; concurrent
// identical requests wait on ready and share the leader's solve without
// touching an engine — single-flight coalescing. A published entry keeps
// serving hits until evicted.
type memoEntry struct {
	ready chan struct{} // closed once published or abandoned
	err   error         // set before ready closes; non-nil = abandoned

	// res is the completed solve (TransientSolver.Solve allocates a fresh
	// result per call, so sharing the pointer across responses is safe);
	// hash is its PressureSHA256, computed once; solveSeconds is the
	// filling solve's cost — the timing provenance a memo hit reports.
	res          *umesh.TransientResult
	hash         string
	solveSeconds float64
}

// memoItem is what the LRU list holds.
type memoItem struct {
	key memoKey
	e   *memoEntry
}

// memo is the bounded result-memoization LRU: completed responses keyed by
// (scenario, payload), least recently used evicted beyond capacity. An
// in-flight entry can be evicted too — waiters already hold the pointer and
// still receive the leader's result; only future lookups re-solve.
type memo struct {
	capacity int

	mu      sync.Mutex
	entries map[memoKey]*list.Element // value: *memoItem
	lru     *list.List                // front = most recently used
}

// newMemo builds a memo; capacity <= 0 disables memoization (nil memo).
func newMemo(capacity int) *memo {
	if capacity <= 0 {
		return nil
	}
	return &memo{capacity: capacity, entries: make(map[memoKey]*list.Element), lru: list.New()}
}

// acquire resolves a key to its entry. leader reports that the caller
// created the slot and owes publish or abandon; otherwise the caller waits
// on ready (already closed for completed entries) and shares the result.
func (m *memo) acquire(key memoKey) (e *memoEntry, leader bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.lru.MoveToFront(el)
		return el.Value.(*memoItem).e, false
	}
	e = &memoEntry{ready: make(chan struct{})}
	el := m.lru.PushFront(&memoItem{key: key, e: e})
	m.entries[key] = el
	if m.lru.Len() > m.capacity {
		oldest := m.lru.Back()
		m.lru.Remove(oldest)
		delete(m.entries, oldest.Value.(*memoItem).key)
	}
	return e, true
}

// publish completes a leader's entry: the result and its provenance become
// visible to every waiter and every future hit. Publishing does not need
// the lock — the entry's fields are only read after ready closes.
func (m *memo) publish(key memoKey, e *memoEntry, res *umesh.TransientResult, solveSeconds float64) {
	e.res = res
	e.hash = PressureHash(res.Pressure)
	e.solveSeconds = solveSeconds
	close(e.ready)
}

// abandon releases a leader's entry without a result (the request failed or
// was rejected downstream of the memo): the slot is removed so the next
// request retries, and waiters see err and solve for themselves.
func (m *memo) abandon(key memoKey, e *memoEntry) {
	m.mu.Lock()
	if el, ok := m.entries[key]; ok && el.Value.(*memoItem).e == e {
		m.lru.Remove(el)
		delete(m.entries, key)
	}
	m.mu.Unlock()
	e.err = errMemoAbandoned
	close(e.ready)
}

// size reports the resident entry count (0 for a disabled memo).
func (m *memo) size() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}
