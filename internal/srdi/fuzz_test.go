package srdi

import (
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"jxta/internal/ids"
	"jxta/internal/transport"
)

// modelReg is one live registration as the fuzz model keeps it.
type modelReg struct {
	addr    transport.Addr
	numAttr string
	value   int64
	expires time.Duration // 0 = never
}

// FuzzRangePublishers holds RangePublishers to a model of the live
// registrations. Each three-byte step either advances the clock and runs GC,
// or adds a tuple: one of four publishers at one of two addresses, under one
// of two integer attributes or none, with a value from a small set (so keys
// and values repeat) and a lifetime of 0 (never), 30, 60 or 90 s. After every
// step a full-span and a byte-chosen range query per attribute must return
// the model's answer: the fresh matching registrations, one per publisher
// (the one that lives longest, then the lowest address), in publisher order,
// each with its remaining lifetime. GC must evict exactly the expired ones.
func FuzzRangePublishers(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 2, 0, 1, 0})
	f.Add([]byte{1, 4, 6, 2, 9, 7, 0, 3, 0, 3, 25, 4, 1, 33, 6, 0, 2, 0})
	f.Add([]byte{3, 16, 0, 1, 20, 0, 2, 24, 0, 0, 1, 0, 0, 2, 0, 1, 48, 5})
	attrs := [...]string{"ResourceRAM", "ResourceCPU"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		x, sched := newIndex()
		model := map[[2]string]modelReg{} // (key, publisher name) → registration
		pubOf := map[string]ids.ID{}
		for i := 0; i+2 < len(ops) && i < 3*64; i += 3 {
			a, b, c := ops[i], ops[i+1], ops[i+2]
			now := sched.Now()
			if a%4 == 0 {
				sched.Run(now + time.Duration(b%4)*20*time.Second)
				now = sched.Now()
				want := 0
				for k, r := range model {
					if r.expires > 0 && r.expires <= now {
						delete(model, k)
						want++
					}
				}
				if got := x.GC(); got != want || x.Size() != len(model) {
					t.Fatalf("step %d: GC evicted %d (Size %d), want %d (Size %d)", i/3, got, x.Size(), want, len(model))
				}
			} else {
				name := "p" + strconv.Itoa(int(b%4))
				pubOf[name] = ids.FromName(ids.KindPeer, name)
				life := time.Duration(b>>2%4) * 30 * time.Second
				tpl := tup("", name, life)
				tpl.PublisherAddr += transport.Addr(strconv.Itoa(int(b >> 4 % 2)))
				typeAttr := attrs[c%2]
				value := int64(c>>1%6) * 512
				tpl.Key = typeAttr + strconv.FormatInt(value, 10)
				if c>>4%4 != 0 { // a quarter of the tuples carry no integer
					tpl.NumAttr, tpl.NumValue = typeAttr, value
				}
				x.Add(tpl)
				r := modelReg{addr: tpl.PublisherAddr, numAttr: tpl.NumAttr, value: value}
				if life > 0 {
					r.expires = now + life
				}
				model[[2]string{tpl.Key, name}] = r
			}
			for _, attr := range attrs {
				lo := int64(b%7)*512 - 256
				for _, rg := range [][2]int64{{math.MinInt64, math.MaxInt64}, {lo, lo + int64(c%5)*512}} {
					got := x.RangePublishers(attr, rg[0], rg[1])
					want := modelRange(model, pubOf, attr, rg[0], rg[1], now)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: RangePublishers(%s, %d, %d) = %v, want %v", i/3, attr, rg[0], rg[1], got, want)
					}
				}
			}
		}
	})
}

// modelRange is RangePublishers over the fuzz model.
func modelRange(model map[[2]string]modelReg, pubOf map[string]ids.ID, attr string, lo, hi int64, now time.Duration) []Tuple {
	best := map[string]Tuple{}
	for k, r := range model {
		if r.numAttr != attr || r.value < lo || r.value > hi || r.expires > 0 && r.expires <= now {
			continue
		}
		var remaining time.Duration
		if r.expires > 0 {
			remaining = r.expires - now
		}
		cand := Tuple{Key: attr, Publisher: pubOf[k[1]], PublisherAddr: r.addr, Lifetime: remaining}
		cur, seen := best[k[1]]
		switch {
		case !seen:
		case cur.Lifetime == 0 && cand.Lifetime != 0:
			continue
		case cand.Lifetime == 0 && cur.Lifetime != 0:
		case cand.Lifetime < cur.Lifetime:
			continue
		case cand.Lifetime == cur.Lifetime && cand.PublisherAddr >= cur.PublisherAddr:
			continue
		}
		best[k[1]] = cand
	}
	var out []Tuple
	for _, tpl := range best {
		out = append(out, tpl)
	}
	slices.SortFunc(out, func(a, b Tuple) int { return a.Publisher.Compare(b.Publisher) })
	return out
}
