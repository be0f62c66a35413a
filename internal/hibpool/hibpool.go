// Package hibpool provides tiny sync.Pool-backed free lists for the edge
// hibernation layer. A hibernating overlay constantly freeze-dries and
// rehydrates edge endpoints: their maps are emptied and released on freeze
// and rebuilt on wake, and a compact "frozen record" is allocated per
// freeze (internal/endpoint; the transport's FIFO-clamp map rides along).
// Because at most one node executes per shard at any instant, only a
// handful of each object is ever live at once — pooling turns millions of
// wake/freeze cycles into near-zero allocator traffic.
//
// The pools follow the pattern internal/message established for wire
// buffers: zero-value-usable package vars, Get-or-make, clear-on-return.
package hibpool

import "sync"

// Maps recycles map shells of one key/value shape. The zero value is ready
// to use. Get returns an empty map (pooled or freshly made); Put clears the
// map and returns its buckets to the pool, so a rehydrating node reuses the
// bucket array a previously-frozen node dropped.
type Maps[K comparable, V any] struct {
	p sync.Pool
}

// Get returns an empty map, reusing pooled buckets when available.
func (mp *Maps[K, V]) Get() map[K]V {
	if m, ok := mp.p.Get().(map[K]V); ok {
		return m
	}
	return make(map[K]V)
}

// Put empties m and returns it to the pool. Put(nil) is a no-op.
func (mp *Maps[K, V]) Put(m map[K]V) {
	if m == nil {
		return
	}
	clear(m)
	mp.p.Put(m)
}

// Records recycles pointer-to-struct frozen records. Reset, if set, runs on
// every Put so the record drops references (truncate packed slices in place,
// keeping capacity) before idling in the pool.
type Records[T any] struct {
	p     sync.Pool
	Reset func(*T)
}

// Get returns a recycled record or a fresh zero one.
func (r *Records[T]) Get() *T {
	if t, ok := r.p.Get().(*T); ok {
		return t
	}
	return new(T)
}

// Put returns rec to the pool, running Reset first when configured.
// Put(nil) is a no-op.
func (r *Records[T]) Put(rec *T) {
	if rec == nil {
		return
	}
	if r.Reset != nil {
		r.Reset(rec)
	}
	r.p.Put(rec)
}
