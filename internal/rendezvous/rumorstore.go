package rendezvous

import (
	"slices"
	"time"

	"jxta/internal/ids"
	"jxta/internal/peerview"
)

// rumorDeadSweeps bounds the rumor store: the record of an identity that is
// neither a view member nor a leased client nor re-gossiped for this many
// client sweeps (each LeaseDuration/4) is evicted, and retryMerges stops
// probing it. Four sweeps is one LeaseDuration, inside which every live peer
// renews a lease, and so re-gossips or re-appears, at least once.
const rumorDeadSweeps = 4

// rumorRecord is the store's one record per rumored identity: its
// checksummed rumor, its count of consecutive dead sweeps, and the time this
// rendezvous last tier-probed or merged with it (the merge backoff).
type rumorRecord struct {
	peerview.Rumor
	tried   time.Duration // when stamped, the last merge initiation toward the identity
	dead    int32
	stamped bool
}

// rumorStore holds the tier rumors this peer learned (IslandMerge), in
// ascending ID order. Unlike the failover alternates, which each lease grant
// replaces wholesale, a record stays until the sweep evicts it: a rumor's
// value is that it may name a rendezvous this island never heard of. The
// read methods and sweep take a nil store as an empty one.
type rumorStore struct {
	recs   []rumorRecord // ascending ID: the ordering is the index (find)
	cursor int           // rotating window position (nextWindow)
}

// find returns the position id holds, or would be inserted at, in the
// ascending order, and whether it is present.
func (rs *rumorStore) find(id ids.ID) (int, bool) {
	return slices.BinarySearchFunc(rs.recs, id, func(r rumorRecord, id ids.ID) int { return r.ID.Compare(id) })
}

// add takes in a verified rumor and returns its record, valid until the
// next add or sweep, or nil when the rumor cannot be probed (no address, or
// the nil ID). A new address refreshes the record and keeps its stamp; every
// sighting clears the dead count. r may be a view of a loaned message: the
// store copies the address it keeps, and a rumor it holds costs nothing.
func (rs *rumorStore) add(r peerview.Rumor) *rumorRecord {
	if r.Addr == "" || r.ID.IsNil() {
		return nil
	}
	i, ok := rs.find(r.ID)
	if !ok {
		r.Seed = r.Seed.Clone()
		rs.recs = slices.Insert(rs.recs, i, rumorRecord{Rumor: r})
	} else if rs.recs[i].Addr != r.Addr {
		r.Seed = r.Seed.Clone()
		rs.recs[i].Rumor = r
	}
	rs.recs[i].dead = 0
	return &rs.recs[i]
}

// record returns id's record, or nil; it is valid until the next add or
// sweep.
func (rs *rumorStore) record(id ids.ID) *rumorRecord {
	if rs == nil {
		return nil
	}
	if i, ok := rs.find(id); ok {
		return &rs.recs[i]
	}
	return nil
}

// Len returns the number of records.
func (rs *rumorStore) Len() int {
	if rs == nil {
		return 0
	}
	return len(rs.recs)
}

// nextWindow returns up to n records from a rotating cursor, and advances
// it: a piggyback channel carries a capped number per message, and always
// sending the first n by ID would starve every identity past the cap —
// possibly the one that bridges two islands. Inserts shift the order, so a
// step may repeat or skip an entry once; the cycle stays complete and
// deterministic. The window is the two runs of the store it covers, up to
// the end and then wrapped around from the start: read them before the next
// add or sweep, and do not mutate them.
func (rs *rumorStore) nextWindow(n int) (head, wrapped []rumorRecord) {
	total := rs.Len()
	if total == 0 || n <= 0 {
		return nil, nil
	}
	n = min(n, total)
	if rs.cursor >= total {
		rs.cursor = 0
	}
	head = rs.recs[rs.cursor:min(rs.cursor+n, total)]
	wrapped = rs.recs[:n-len(head)]
	rs.cursor = (rs.cursor + n) % total
	return head, wrapped
}

// sweep ages the store against a liveness oracle and reports how many
// records it evicted: it counts one more dead sweep for every identity live
// rejects, clears the count of the others, and evicts, stamp and all, a
// record whose count reaches rumorDeadSweeps. Aging bounds the store to the
// identities seen alive (or re-rumored) recently; the grace period keeps one
// missed probe from erasing a merge lead.
func (rs *rumorStore) sweep(live func(ids.ID) bool) int {
	if rs == nil {
		return 0
	}
	kept := rs.recs[:0]
	evicted, shift := 0, 0
	for i, r := range rs.recs {
		switch {
		case live(r.ID):
			r.dead = 0
		case r.dead+1 < rumorDeadSweeps:
			r.dead++
		default:
			evicted++
			if i < rs.cursor {
				shift++ // keep the rotation window anchored on surviving records
			}
			continue
		}
		kept = append(kept, r)
	}
	clear(rs.recs[len(kept):]) // the evicted tail's addresses
	rs.recs = kept
	rs.cursor -= shift
	return evicted
}
