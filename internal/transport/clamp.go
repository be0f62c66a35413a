package transport

import "time"

// clampFew is the most destinations the clamp keeps in a slice. An edge
// sends to its rendezvous and little else, so its clamp is one entry for as
// long as it lives; only a sender with messages in flight to more than eight
// peers at one instant (a rendezvous propagating to its edges) needs the map.
const clampFew = 8

// arrivalPruneLen is the map size beyond which a send may trigger a prune
// sweep.
const arrivalPruneLen = 64

// arrivalPruneEvery rate-limits sweeps in virtual time.
const arrivalPruneEvery = time.Second

type lastArrival struct {
	to Addr
	at time.Duration
}

// fifoClamp remembers, per destination, when the previous message arrives,
// so that the next one can be ordered behind it. An entry strictly in the
// past can never bind — latencies are nonnegative, so every future arrival
// lands at or after now — and forgetting it never changes delivery order.
// That is all the bookkeeping rests on: up to clampFew destinations live in a
// slice that drops past entries as it is scanned, so it never holds more
// than the destinations that can bind right now; when more than clampFew
// bind at once the entries move to a map, swept lazily of past entries, for
// the rest of the sender's life.
type fifoClamp struct {
	few  []lastArrival
	many map[Addr]time.Duration
	// nextPrune rate-limits the map's sweep (virtual time).
	nextPrune time.Duration
}

// order returns when a message sent at now, which by latency alone would
// reach to at arrival, does arrive: no earlier than a microsecond behind the
// previous message to the same destination.
func (c *fifoClamp) order(to Addr, now, arrival time.Duration) time.Duration {
	if c.many != nil {
		if last := c.many[to]; arrival <= last {
			arrival = last + time.Microsecond
		}
		c.many[to] = arrival
		c.maybePrune(now)
		return arrival
	}
	var last time.Duration
	live := c.few[:0]
	for _, e := range c.few {
		if e.to == to {
			last = e.at
		} else if e.at >= now {
			live = append(live, e)
		}
	}
	if arrival <= last {
		arrival = last + time.Microsecond
	}
	if len(live) == clampFew {
		c.many = make(map[Addr]time.Duration, 2*clampFew)
		for _, e := range live {
			c.many[e.to] = e.at
		}
		c.many[to] = arrival
		c.few = nil
		return arrival
	}
	c.few = append(live, lastArrival{to, arrival})
	return arrival
}

// maybePrune drops map entries that can no longer bind. Determinism is
// preserved because the removal set depends only on virtual time, not map
// iteration order.
func (c *fifoClamp) maybePrune(now time.Duration) {
	if len(c.many) < arrivalPruneLen || now < c.nextPrune {
		return
	}
	c.nextPrune = now + arrivalPruneEvery
	n := 0
	for _, last := range c.many {
		if last >= now {
			n++
		}
	}
	// delete() never returns bucket memory, so a wide-fanout sender (a
	// rendezvous serving hundreds of peers) pruned in place would keep its
	// high-water bucket array forever. When the sweep would discard most of
	// the map, rebuild the survivors into an exact-size shell instead; when
	// the map is mostly live, deleting in place avoids the allocation.
	if 2*n >= len(c.many) {
		for a, last := range c.many {
			if last < now {
				delete(c.many, a)
			}
		}
		return
	}
	m := make(map[Addr]time.Duration, n)
	for a, last := range c.many {
		if last >= now {
			m[a] = last
		}
	}
	c.many = m
}
