// Package srdi implements the Shared Resource Distributed Index: the tuple
// store rendezvous peers keep for the LC-DHT (§3.3). Edge peers publish
// attribute tables — tuples (index attribute, value) with a life duration
// and the identity of the publishing peer — to their rendezvous; rendezvous
// peers keep a copy and replicate each tuple to the replica peer computed by
// hashing the tuple over the local peerview. One index answers both kinds
// of query: an exact match reads a key's posting list, and a range query
// scans every registration for the integer value its tuple carried.
package srdi

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/transport"
)

// Tuple is one published index entry.
type Tuple struct {
	// Key is the hash input "Type+Attr+Value" (e.g. "PeerNameTest").
	Key string
	// Publisher is the peer holding the advertisement.
	Publisher ids.ID
	// PublisherAddr lets any rendezvous forward queries to the publisher
	// without a prior route.
	PublisherAddr transport.Addr
	// Lifetime bounds the entry's validity at the index.
	Lifetime time.Duration
	// NumAttr/NumValue mark an integer-valued registration: when NumAttr
	// ("Type+Attr") is non-empty the tuple's value is the integer NumValue,
	// and RangePublishers finds the registration by it.
	NumAttr  string
	NumValue int64
}

// entryInfo tracks one publisher's registration under a key. The integer
// value that arrived on the same tuple (if any) is kept with it, for range
// queries and so Tuples can reconstruct complete tuples for a lease-state
// handoff.
type entryInfo struct {
	addr     transport.Addr
	expires  time.Duration // absolute env time; 0 = never
	numAttr  string
	numValue int64
}

// pubEntry is one publisher's registration in a key's posting list.
type pubEntry struct {
	pub ids.ID
	entryInfo
}

// Index is a rendezvous peer's SRDI store. Not safe for concurrent use
// (env serialization covers it). It holds one posting list per key, the
// exact-match index the LC-DHT hashes over; the range queries the paper's
// conclusion lists as future work ("the mechanisms used by JXTA-C to
// address complex queries, such as range queries") scan the same
// registrations, as JXTA-C scans its SRDI.
//
// Posting lists are slices sorted by publisher ID rather than maps: an
// LC-DHT key embeds the indexed value, so almost every key has exactly one
// publisher, and a one-element slice costs a tenth of a one-element map —
// the difference between a rendezvous carrying 100k edges fitting in RAM
// or not.
type Index struct {
	env     env.Env
	entries map[string][]pubEntry
	size    int
}

// New builds an empty index.
func New(e env.Env) *Index {
	return &Index{env: e, entries: make(map[string][]pubEntry)}
}

// Size returns the total number of (key, publisher) registrations — the
// quantity the simulated per-query scan cost scales with (JXTA-C scans its
// SRDI linearly).
func (x *Index) Size() int { return x.size }

// Add registers a tuple, replacing any previous registration by the same
// publisher under the same key.
func (x *Index) Add(t Tuple) {
	var expires time.Duration
	if t.Lifetime > 0 {
		expires = x.env.Now() + t.Lifetime
	}
	info := entryInfo{
		addr: t.PublisherAddr, expires: expires,
		numAttr: t.NumAttr, numValue: t.NumValue,
	}
	lst := x.entries[t.Key]
	i := sort.Search(len(lst), func(i int) bool { return !lst[i].pub.Less(t.Publisher) })
	if i < len(lst) && lst[i].pub == t.Publisher {
		lst[i].entryInfo = info
		return
	}
	lst = append(lst, pubEntry{})
	copy(lst[i+1:], lst[i:])
	lst[i] = pubEntry{pub: t.Publisher, entryInfo: info}
	x.entries[t.Key] = lst
	x.size++
}

// Tuples exports every fresh registration as a complete tuple with its
// *remaining* lifetime, sorted by (key, publisher) — the payload a
// gracefully stopping rendezvous hands to its successor so the index
// survives the transition. Re-adding the returned tuples on another peer
// reproduces the index, integer values included.
func (x *Index) Tuples() []Tuple {
	now := x.env.Now()
	keys := make([]string, 0, len(x.entries))
	for key := range x.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out []Tuple
	for _, key := range keys {
		// Posting lists are kept sorted by publisher, so the export order
		// (key, publisher) needs no per-key sort.
		for _, e := range x.entries[key] {
			if e.expires > 0 && e.expires <= now {
				continue
			}
			var remaining time.Duration
			if e.expires > 0 {
				remaining = e.expires - now
			}
			out = append(out, Tuple{
				Key: key, Publisher: e.pub, PublisherAddr: e.addr,
				Lifetime: remaining,
				NumAttr:  e.numAttr, NumValue: e.numValue,
			})
		}
	}
	return out
}

// Publishers returns the fresh publishers registered under key, with their
// addresses, in ascending publisher-ID order. The set is assembled from a
// map, so without the sort the order — and with it the sequence of query
// forwards and ultimately the presentation order of merged discovery
// responses — would vary run to run (the seed's last nondeterminism).
func (x *Index) Publishers(key string) []Tuple { return x.AppendPublishers(nil, key) }

// AppendPublishers is Publishers appending to dst. The results carry no Key,
// and key is only looked up: a caller may pass a view of bytes it reuses.
func (x *Index) AppendPublishers(dst []Tuple, key string) []Tuple {
	now := x.env.Now()
	for _, e := range x.entries[key] {
		if e.expires > 0 && e.expires <= now {
			continue
		}
		dst = append(dst, Tuple{Publisher: e.pub, PublisherAddr: e.addr})
	}
	return dst
}

// GC evicts expired registrations and returns how many were removed.
func (x *Index) GC() int {
	now := x.env.Now()
	evicted := 0
	for key, lst := range x.entries {
		kept := lst[:0]
		for _, e := range lst {
			if e.expires > 0 && e.expires <= now {
				x.size--
				evicted++
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			delete(x.entries, key)
		} else {
			x.entries[key] = kept
		}
	}
	return evicted
}

// Keys returns the number of distinct keys (diagnostics).
func (x *Index) Keys() int { return len(x.entries) }

// RangePublishers returns the fresh publishers with a registration whose
// NumAttr is typeAttr and whose value lies in [lo, hi], one per publisher,
// in ascending publisher-ID order, so forwards go out in the same order
// every run. Each result's Lifetime is what remains of its registration:
// of a publisher's several matching registrations it is the one that lives
// longest (then the lowest address), whose address is the freshest.
func (x *Index) RangePublishers(typeAttr string, lo, hi int64) []Tuple {
	now := x.env.Now()
	var out []Tuple
	for _, lst := range x.entries {
		for _, e := range lst {
			if e.numAttr != typeAttr || e.numValue < lo || e.numValue > hi ||
				e.expires > 0 && e.expires <= now {
				continue
			}
			var remaining time.Duration
			if e.expires > 0 {
				remaining = e.expires - now
			}
			out = append(out, Tuple{Key: typeAttr, Publisher: e.pub, PublisherAddr: e.addr, Lifetime: remaining})
		}
	}
	slices.SortFunc(out, func(a, b Tuple) int {
		if c := a.Publisher.Compare(b.Publisher); c != 0 {
			return c
		}
		if c := cmp.Compare(outlives(b.Lifetime), outlives(a.Lifetime)); c != 0 {
			return c
		}
		return cmp.Compare(a.PublisherAddr, b.PublisherAddr)
	})
	return slices.CompactFunc(out, func(a, b Tuple) bool { return a.Publisher == b.Publisher })
}

// outlives orders remaining lifetimes, a registration that never expires
// (0) last of all.
func outlives(remaining time.Duration) time.Duration {
	if remaining == 0 {
		return math.MaxInt64
	}
	return remaining
}
