// Package cm implements the advertisement cache manager: each peer's local
// store of advertisements with attribute indexing and lifetime-based
// eviction (JXTA-C's "CM" component). Edge peers keep their own published
// advertisements and cache discovered ones here; the discovery benchmark's
// per-query "flush of the local searcher cache" (§4.2) maps to Flush.
package cm

import (
	"sort"
	"strings"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/env"
	"jxta/internal/ids"
)

// Record is a stored advertisement plus bookkeeping. Adv is the canonical
// interned instance (advstore) shared with every other peer caching an
// equal advertisement — read-only by contract.
type Record struct {
	Adv     advertisement.Advertisement
	Expires time.Duration // absolute env time; 0 = never
	Local   bool          // published locally (survives Flush)
	// sh is the interning handle backing Adv; released on eviction. Nil
	// only on the zero Record.
	sh *advstore.Shared
}

// recordChunk sizes the arena slabs Records are allocated from.
const recordChunk = 64

// Cache is one peer's advertisement store. Not safe for concurrent use; the
// env callback serialization covers it.
//
// The three maps are nil until first written — reads of a nil map already
// report an empty cache — so a peer that never stores an advertisement
// never allocates them.
type Cache struct {
	env  env.Env
	byID map[ids.ID]*Record
	// index maps "Type+Attr+Value" keys to the sorted advertisement IDs
	// carrying that field. A sorted slice instead of a set: most keys index
	// exactly one advertisement, and a one-element slice is an order of
	// magnitude smaller than a one-element map.
	index map[string][]ids.ID
	// numIndex maps "Type\x00Attr" keys to numeric postings for every
	// indexed field whose value parses as an integer, making range
	// queries sublinear. Attrs that never carried a numeric value have no
	// key here and fall back to the linear scan.
	numIndex map[string]*numPostings
	// slab/free are the Record arena: long-lived records are carved out of
	// chunked slabs (one allocation per recordChunk records instead of one
	// each) and recycled through the free list on eviction. A chunk is
	// garbage only once every record in it is free — acceptable for ~64-byte
	// records that mostly live as long as the cache.
	slab []Record
	free []*Record
	// store interns stored advertisements (shared with every other cache
	// of the same deployment).
	store *advstore.Store
}

// numEntry is one numeric index posting.
type numEntry struct {
	val int64
	id  ids.ID
}

// numPostings is one (type,attr) posting list. Inserts append and mark the
// list dirty so Put stays O(1); the list is sorted (and exact duplicates
// collapsed) lazily on the first range query after a burst of writes.
type numPostings struct {
	entries []numEntry
	dirty   bool
}

// numKey builds the numeric-index key for a (type, attr) pair.
func numKey(advType, attr string) string { return advType + "\x00" + attr }

// New builds an empty cache interning against the process-wide default
// store.
func New(e env.Env) *Cache { return NewWithStore(e, advstore.Default()) }

// NewWithStore builds an empty cache interning against the given store.
// Deployments pass one store per overlay so equal advertisements dedupe
// across the population without outliving it.
func NewWithStore(e env.Env, store *advstore.Store) *Cache {
	return &Cache{env: e, store: store}
}

// newRecord carves a record out of the arena, preferring recycled ones.
func (c *Cache) newRecord() *Record {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		return r
	}
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]Record, 0, recordChunk)
	}
	c.slab = append(c.slab, Record{})
	return &c.slab[len(c.slab)-1]
}

// freeRecord releases a record's interning handle and recycles it.
func (c *Cache) freeRecord(rec *Record) {
	if rec.sh != nil {
		rec.sh.Release()
	}
	*rec = Record{}
	c.free = append(c.free, rec)
}

// Len returns the number of stored advertisements.
func (c *Cache) Len() int { return len(c.byID) }

// Quiescent reports whether the cache is idle: nothing stored.
func (c *Cache) Quiescent() bool { return len(c.byID) == 0 }

// IndexSize returns the number of index entries, the quantity that drives
// the simulated per-query scan cost on loaded rendezvous peers.
func (c *Cache) IndexSize() int {
	n := 0
	for _, lst := range c.index {
		n += len(lst)
	}
	return n
}

// Put stores or replaces an advertisement. lifetime bounds its validity
// (zero means no expiry); local marks advertisements published by this peer.
// The advertisement is interned: the stored instance may be the canonical
// one another peer published first, so callers must not mutate adv after
// publishing it.
func (c *Cache) Put(adv advertisement.Advertisement, lifetime time.Duration, local bool) {
	c.put(c.store.Intern(adv), lifetime, local)
}

// PutEncoded is Put for an advertisement still in its encoded form — one
// that came off the wire. The bytes go to advstore.InternBytes, so an
// advertisement the store already holds (in simulation: the publisher's
// own copy) is recognised from its bytes and never decoded. It returns the
// canonical instance, or the decoder's error for malformed bytes, which
// leaves the cache untouched. wire is not retained.
func (c *Cache) PutEncoded(wire []byte, lifetime time.Duration, local bool) (advertisement.Advertisement, error) {
	sh, err := c.store.InternBytes(wire)
	if err != nil {
		return nil, err
	}
	c.put(sh, lifetime, local)
	return sh.Adv(), nil
}

// Encoded returns the canonical encoding of a stored advertisement — the
// bytes advertisement.EncodeXML would produce, encoded at most once and
// shared, read-only — or nil if id is not stored or cannot be encoded.
func (c *Cache) Encoded(id ids.ID) []byte {
	if rec, ok := c.byID[id]; ok {
		return rec.sh.Bytes()
	}
	return nil
}

// put files an interned advertisement, taking over the caller's reference.
func (c *Cache) put(sh *advstore.Shared, lifetime time.Duration, local bool) {
	adv := sh.Adv()
	id := adv.ID()
	var expires time.Duration
	if lifetime > 0 {
		expires = c.env.Now() + lifetime
	}
	rec, existed := c.byID[id]
	if existed {
		c.unindex(rec.Adv)
		rec.sh.Release()
	} else {
		rec = c.newRecord()
		if c.byID == nil {
			c.byID = make(map[ids.ID]*Record)
		}
		c.byID[id] = rec
	}
	rec.Adv, rec.Expires, rec.Local, rec.sh = adv, expires, local, sh
	for _, f := range adv.IndexFields() {
		key := f.Key(adv.Type())
		lst := c.index[key]
		i := sort.Search(len(lst), func(i int) bool { return !lst[i].Less(id) })
		if i == len(lst) || lst[i] != id {
			lst = append(lst, ids.ID{})
			copy(lst[i+1:], lst[i:])
			lst[i] = id
			if c.index == nil {
				c.index = make(map[string][]ids.ID)
			}
			c.index[key] = lst
		}
		if v, ok := f.Int(); ok {
			c.numInsert(numKey(adv.Type(), f.Attr), numEntry{val: v, id: id})
		}
	}
}

func (c *Cache) unindex(adv advertisement.Advertisement) {
	id := adv.ID()
	for _, f := range adv.IndexFields() {
		key := f.Key(adv.Type())
		if lst, ok := c.index[key]; ok {
			i := sort.Search(len(lst), func(i int) bool { return !lst[i].Less(id) })
			if i < len(lst) && lst[i] == id {
				lst = append(lst[:i], lst[i+1:]...)
				if len(lst) == 0 {
					delete(c.index, key)
				} else {
					c.index[key] = lst
				}
			}
		}
		if v, ok := f.Int(); ok {
			c.numRemove(numKey(adv.Type(), f.Attr), numEntry{val: v, id: id})
		}
	}
}

// numLess orders postings by (value, id) — a total order, so binary search
// finds exact posting positions.
func numLess(a, b numEntry) bool {
	if a.val != b.val {
		return a.val < b.val
	}
	return a.id.Less(b.id)
}

// numInsert appends a posting in O(1); sorting is deferred to the next
// range query.
func (c *Cache) numInsert(key string, e numEntry) {
	p, ok := c.numIndex[key]
	if !ok {
		p = &numPostings{}
		if c.numIndex == nil {
			c.numIndex = make(map[string]*numPostings)
		}
		c.numIndex[key] = p
	}
	p.entries = append(p.entries, e)
	p.dirty = true
}

// numRemove deletes one occurrence of a posting if present.
func (c *Cache) numRemove(key string, e numEntry) {
	p, ok := c.numIndex[key]
	if !ok {
		return
	}
	if p.dirty {
		for i, cur := range p.entries {
			if cur == e {
				p.entries = append(p.entries[:i], p.entries[i+1:]...)
				break
			}
		}
	} else {
		i := sort.Search(len(p.entries), func(i int) bool { return !numLess(p.entries[i], e) })
		if i >= len(p.entries) || p.entries[i] != e {
			return
		}
		p.entries = append(p.entries[:i], p.entries[i+1:]...)
	}
	if len(p.entries) == 0 {
		delete(c.numIndex, key)
	}
}

// ensureSorted sorts a dirty posting list by (value, id) and collapses
// exact duplicate postings (an adv listing one attr/value pair twice).
func (p *numPostings) ensureSorted() {
	if !p.dirty {
		return
	}
	sort.Slice(p.entries, func(i, j int) bool { return numLess(p.entries[i], p.entries[j]) })
	out := p.entries[:0]
	for i, e := range p.entries {
		if i > 0 && e == out[len(out)-1] {
			continue
		}
		out = append(out, e)
	}
	p.entries = out
	p.dirty = false
}

// Get returns the advertisement with the given ID if present and fresh.
func (c *Cache) Get(id ids.ID) (advertisement.Advertisement, bool) {
	rec, ok := c.byID[id]
	if !ok || c.expired(rec) {
		return nil, false
	}
	return rec.Adv, true
}

// Remove deletes an advertisement.
func (c *Cache) Remove(id ids.ID) {
	if rec, ok := c.byID[id]; ok {
		c.unindex(rec.Adv)
		delete(c.byID, id)
		c.freeRecord(rec)
	}
}

func (c *Cache) expired(rec *Record) bool {
	return rec.Expires > 0 && rec.Expires <= c.env.Now()
}

// Search returns fresh advertisements of advType whose attr matches value,
// ordered by advertisement ID. A trailing '*' in value performs a prefix
// match (the simple wildcard JXTA discovery supports); exact matches use
// the index directly. Matches come out of map-backed index sets, so the
// sort is what makes multi-publisher discovery responses deterministic.
func (c *Cache) Search(advType, attr, value string) []advertisement.Advertisement {
	var out []advertisement.Advertisement
	if strings.HasSuffix(value, "*") {
		prefix := advType + attr + strings.TrimSuffix(value, "*")
		for key, lst := range c.index {
			if !strings.HasPrefix(key, prefix) {
				continue
			}
			out = c.collect(out, advType, lst)
		}
		return sortAdvs(out)
	}
	key := advertisement.IndexField{Attr: attr, Value: value}.Key(advType)
	if lst, ok := c.index[key]; ok {
		out = c.collect(out, advType, lst)
	}
	return sortAdvs(out)
}

// sortAdvs orders advertisements by ID in place and returns the slice.
func sortAdvs(advs []advertisement.Advertisement) []advertisement.Advertisement {
	sort.Slice(advs, func(i, j int) bool { return advs[i].ID().Less(advs[j].ID()) })
	return advs
}

func (c *Cache) collect(out []advertisement.Advertisement, advType string, lst []ids.ID) []advertisement.Advertisement {
	for _, id := range lst {
		rec, ok := c.byID[id]
		if !ok || c.expired(rec) || rec.Adv.Type() != advType {
			continue
		}
		out = append(out, rec.Adv)
	}
	return out
}

// SearchRange returns fresh advertisements of advType whose attr parses as
// an integer within [lo, hi] — the complex-query extension. The per-
// (type,attr) sorted numeric index makes this O(log n + matches); attrs
// with no numeric postings fall back to the linear scan over the store
// (JXTA-C CM behavior). Results are ordered by (value, id), deterministic
// across runs.
func (c *Cache) SearchRange(advType, attr string, lo, hi int64) []advertisement.Advertisement {
	p, ok := c.numIndex[numKey(advType, attr)]
	if !ok {
		return c.searchRangeLinear(advType, attr, lo, hi)
	}
	p.ensureSorted()
	entries := p.entries
	var out []advertisement.Advertisement
	var seen map[ids.ID]struct{}
	i := sort.Search(len(entries), func(i int) bool { return entries[i].val >= lo })
	for ; i < len(entries) && entries[i].val <= hi; i++ {
		id := entries[i].id
		// An advertisement with several in-range values for the same attr
		// has one posting per value; report it once.
		if _, dup := seen[id]; dup {
			continue
		}
		rec, okRec := c.byID[id]
		if !okRec || c.expired(rec) || rec.Adv.Type() != advType {
			continue
		}
		if seen == nil {
			seen = make(map[ids.ID]struct{})
		}
		seen[id] = struct{}{}
		out = append(out, rec.Adv)
	}
	return out
}

// searchRangeLinear is the historical full-store scan, kept as the
// fallback path for unindexed attrs.
func (c *Cache) searchRangeLinear(advType, attr string, lo, hi int64) []advertisement.Advertisement {
	var out []advertisement.Advertisement
	for _, rec := range c.byID {
		if c.expired(rec) || rec.Adv.Type() != advType {
			continue
		}
		for _, f := range rec.Adv.IndexFields() {
			if f.Attr != attr {
				continue
			}
			v, ok := f.Int()
			if !ok {
				continue
			}
			if v >= lo && v <= hi {
				out = append(out, rec.Adv)
				break
			}
		}
	}
	return sortAdvs(out)
}

// LocalAdvertisements returns the fresh locally published advertisements
// (the set the SRDI pusher advertises to the rendezvous), ordered by ID so
// push batches are assembled identically across runs.
func (c *Cache) LocalAdvertisements() []advertisement.Advertisement {
	var out []advertisement.Advertisement
	for _, rec := range c.byID {
		if rec.Local && !c.expired(rec) {
			out = append(out, rec.Adv)
		}
	}
	return sortAdvs(out)
}

// Flush drops every non-local advertisement — the benchmark's cache flush
// between consecutive discovery queries, preventing cache speedup.
func (c *Cache) Flush() {
	for id, rec := range c.byID {
		if !rec.Local {
			c.unindex(rec.Adv)
			delete(c.byID, id)
			c.freeRecord(rec)
		}
	}
}

// GC removes expired advertisements and returns how many were evicted.
func (c *Cache) GC() int {
	evicted := 0
	for id, rec := range c.byID {
		if c.expired(rec) {
			c.unindex(rec.Adv)
			delete(c.byID, id)
			c.freeRecord(rec)
			evicted++
		}
	}
	return evicted
}
