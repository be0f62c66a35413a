package message

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestOutScratch: payloads rendered into the scratch stay intact while the
// message is in use, even when a later one outgrows the buffer and moves it;
// a released Out comes back empty and costs nothing to refill.
func TestOutScratch(t *testing.T) {
	o := Acquire()
	defer o.Release()
	caller := []byte("caller's bytes")
	o.Add("a", "aliased", caller)
	o.AddScratch("a", "qid", strconv.AppendUint(o.Scratch(), 18446744073709551615, 10))
	o.AddScratch("a", "hops", strconv.AppendInt(o.Scratch(), -7, 10))
	big := strings.Repeat("tuple", 400) // outgrows the initial scratch
	o.AddScratch("a", "big", append(o.Scratch(), big...))
	o.AddScratch("a", "empty", o.Scratch())
	o.AddScratch("a", "after", append(o.Scratch(), "after"...))
	want := []string{string(caller), "18446744073709551615", "-7", big, "", "after"}
	for i, el := range o.Elements() {
		if string(el.Data) != want[i] {
			t.Fatalf("element %d (%s) reads %.40q, want %.40q", i, el.Name, el.Data, want[i])
		}
		if cap(el.Data) != len(el.Data) && i > 0 {
			t.Fatalf("element %d (%s) has spare capacity: an append would overwrite its neighbour", i, el.Name)
		}
	}
	if aliased, _ := o.Get("a", "aliased"); &aliased[0] != &caller[0] {
		t.Fatal("Add copied the caller's payload")
	}
	cp := o.Clone() // what the transport keeps
	o.Release()
	o = Acquire()
	if o.Len() != 0 || len(o.Scratch()) != 0 {
		t.Fatalf("an acquired Out holds %s and %d scratch bytes", &o.Message, len(o.Scratch()))
	}
	o.AddScratch("b", "x", append(o.Scratch(), strings.Repeat("\xff", 64)...))
	for i, el := range cp.Elements() {
		if string(el.Data) != want[i] {
			t.Fatalf("the clone's element %d changed after the Out was reused", i)
		}
	}
}

// TestOutSteadyStateAllocations: a header of rendered numbers, sent and
// released, allocates nothing once the pool is warm.
func TestOutSteadyStateAllocations(t *testing.T) {
	payload := []byte("<disco:Q></disco:Q>")
	build := func() {
		o := Acquire()
		o.AddString("res", "Handler", "urn:jxta:disco")
		o.AddScratch("res", "QID", strconv.AppendUint(o.Scratch(), 123456, 10))
		o.AddScratch("res", "Hops", strconv.AppendInt(o.Scratch(), 3, 10))
		o.Add("res", "Query", payload)
		o.AddString("ep", "Src", "a")
		o.AddString("ep", "Dst", "b") // past the four inline elements
		if o.Size() == 0 {
			t.Fatal("empty")
		}
		o.Release()
	}
	build()
	if n := testing.AllocsPerRun(200, build); n != 0 {
		t.Fatalf("building and releasing a pooled message costs %.1f allocations, want 0", n)
	}
}

// TestOutReleaseBoundsWhatThePoolKeeps: one bulk message must not pin its
// storage in the pool.
func TestOutReleaseBoundsWhatThePoolKeeps(t *testing.T) {
	o := Acquire()
	for i := 0; i < 4*maxPooledElements; i++ {
		o.AddScratch("srdi", "Tuple", append(o.Scratch(), strings.Repeat("t", 100)...))
	}
	o.Release()
	// The pool may hand back any Out; none may be oversized. An Out kept after
	// a message of maxPooledElements holds the slots append grew for it.
	grown := make([]Element, 0, len(o.inline))
	for len(grown) < maxPooledElements {
		grown = append(grown, Element{})
	}
	for i := 0; i < 8; i++ {
		got := Acquire()
		if cap(got.scratch) > maxPooledScratch || cap(got.elements) > cap(grown) {
			t.Fatalf("pooled Out keeps %d scratch bytes and %d element slots", cap(got.scratch), cap(got.elements))
		}
		defer got.Release()
	}
}

// TestOutKeepsAHundredElements: a message of 100 elements (an SRDI push of a
// few dozen advertisements) is under the bound, so the Out that Release puts
// back in the pool keeps its element slice, emptied, and the next message
// built in it needs no new one. The test trims the Out as Release does but
// keeps it out of the pool: which Out sync.Pool hands back is not part of
// the contract (another test's, or one from another P, may come first).
func TestOutKeepsAHundredElements(t *testing.T) {
	o := Acquire()
	defer o.Release()
	for i := 0; i < 100; i++ {
		o.AddString("srdi", "Tuple", "t")
	}
	slots := &o.elements[:1][0]
	o.trim()
	if o.Len() != 0 || cap(o.elements) < 100 || &o.elements[:1][0] != slots {
		t.Fatalf("a released 100-element Out keeps %d elements in %d element slots", o.Len(), cap(o.elements))
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			o.AddString("srdi", "Tuple", "t")
		}
		o.trim()
	}); n != 0 {
		t.Fatalf("refilling a kept 100-element Out costs %.1f allocations, want 0", n)
	}
}

// TestUnmarshalAlias: the aliasing decoder accepts and rejects exactly what
// Unmarshal does, yields an equal message without copying the frame, reuses
// the receiver, and leaves it empty on error.
func TestUnmarshalAlias(t *testing.T) {
	src := New().AddString("disco", "QID", "7").Add("disco", "Payload", []byte("<q/>")).AddString("x", "", "")
	for i := 0; i < 6; i++ {
		src.AddString("many", strconv.Itoa(i), strings.Repeat("v", i))
	}
	frame := src.Marshal()
	var m Message
	m.AddString("stale", "element", "gone after decoding")
	if err := m.UnmarshalAlias(frame); err != nil {
		t.Fatal(err)
	}
	if !m.Equal(src) {
		t.Fatalf("decoded %s, want %s", &m, src)
	}
	payload, _ := m.Get("disco", "Payload")
	if i := bytes.Index(frame, []byte("<q/>")); &payload[0] != &frame[i] {
		t.Fatal("UnmarshalAlias copied the frame")
	}
	if cap(payload) != len(payload) {
		t.Fatal("an aliased payload has spare capacity: an append would overwrite the frame")
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := m.UnmarshalAlias(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decoding into a message that has the room costs %.0f allocations, want 0", n)
	}
	// Every prefix and every single-byte change: same verdict as Unmarshal,
	// same content when accepted, nothing left behind when rejected.
	check := func(data []byte) {
		t.Helper()
		want, wantErr := Unmarshal(data)
		err := m.UnmarshalAlias(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("frame %q: UnmarshalAlias says %v, Unmarshal says %v", data, err, wantErr)
		}
		if err != nil && m.Len() != 0 {
			t.Fatalf("frame %q rejected, but %d elements left in the message", data, m.Len())
		}
		if err == nil && !m.Equal(want) {
			t.Fatalf("frame %q decodes to %s, Unmarshal decodes %s", data, &m, want)
		}
	}
	for cut := 0; cut <= len(frame); cut++ {
		check(frame[:cut])
	}
	for i := range frame {
		damaged := append([]byte(nil), frame...)
		damaged[i] ^= 0x81
		check(damaged)
	}
	check(append(append([]byte(nil), frame...), 0))
}

// TestAcquireWhileInUse: an Out that has not been released is never handed
// out again, so two messages built at once never share one.
func TestAcquireWhileInUse(t *testing.T) {
	var held []*Out
	seen := map[*Out]bool{}
	for i := 0; i < 16; i++ {
		o := Acquire()
		if seen[o] {
			t.Fatalf("Acquire returned an Out that is still in use (depth %d)", i)
		}
		seen[o] = true
		o.AddScratch("n", "depth", strconv.AppendInt(o.Scratch(), int64(i), 10))
		held = append(held, o)
	}
	for i, o := range held {
		if got := o.GetString("n", "depth"); got != strconv.Itoa(i) {
			t.Fatalf("message %d reads depth %q", i, got)
		}
		o.Release()
	}
}

// TestRead: one pass, first of a name wins, other namespaces and names are
// ignored, the payloads alias the message's, presence tells absent from
// empty, and nothing is allocated.
func TestRead(t *testing.T) {
	payload := []byte("q")
	m := New().AddString("ep", "QID", "not this one").AddString("res", "QID", "7").AddString("res", "QID", "8").
		Add("res", "Query", payload).AddString("res", "Empty", "").AddString("res", "Unasked", "x")
	var qid, query, empty, absent []byte
	read := func() uint32 {
		return m.Read("res", Field{"QID", &qid}, Field{"Absent", &absent}, Field{"Query", &query}, Field{"Empty", &empty})
	}
	if present := read(); present != 1<<0|1<<2|1<<3 {
		t.Fatalf("present = %04b", present)
	}
	if string(qid) != "7" || absent != nil || len(empty) != 0 || &query[0] != &payload[0] {
		t.Fatalf("read QID=%q Absent=%q Empty=%q Query=%q (aliased: %v)", qid, absent, empty, query, &query[0] == &payload[0])
	}
	if n := testing.AllocsPerRun(100, func() { read() }); n != 0 {
		t.Fatalf("Read costs %.0f allocations, want 0", n)
	}
	if present := New().Read("res", Field{"QID", &qid}); present != 0 {
		t.Fatalf("an empty message has %04b present", present)
	}
}

// TestLoanRecyclesWithinOutBounds: a Loan is a deep copy in storage it
// reuses — refilling one costs nothing once it has grown — that reads empty
// once ended, overwrites what it lent when asked to, and reports itself not
// worth keeping once a bulk message grew it past what a released Out keeps.
func TestLoanRecyclesWithinOutBounds(t *testing.T) {
	payload := []byte("<adv/>")
	src := New().Add("pv", "Adv", payload)
	for i := 0; i < 6; i++ { // past the four inline elements
		src.AddString("pv", "N"+strconv.Itoa(i), strings.Repeat("v", 20))
	}
	want := src.Clone()
	var l Loan
	l.Fill(src, true)
	copy(payload, "XXXXXX")
	if !l.Equal(want) {
		t.Fatalf("loan reads %v after its source was overwritten, want %v", &l.Message, want)
	}
	view, _ := l.Get("pv", "Adv")
	if !l.End(true) {
		t.Fatal("a small loan reports itself not worth keeping")
	}
	if l.Len() != 0 || !bytes.Equal(view, bytes.Repeat([]byte{0xDB}, len(view))) {
		t.Fatalf("an ended, scribbled loan has %d elements and a kept view reads %q", l.Len(), view)
	}
	if n := testing.AllocsPerRun(100, func() { l.Fill(want, true); l.End(false) }); n != 0 {
		t.Fatalf("refilling a grown loan costs %.1f allocations, want 0", n)
	}
	bulk := New().Add("srdi", "Tuples", make([]byte, maxPooledScratch+1))
	if l.Fill(bulk, true); l.End(false) {
		t.Fatalf("a loan with a %d-byte buffer reports itself worth keeping", cap(l.buf))
	}
	many := New()
	for i := 0; i <= maxPooledElements; i++ {
		many.AddString("srdi", "T", "")
	}
	var m Loan
	if m.Fill(many, true); m.End(false) {
		t.Fatalf("a loan with %d element slots reports itself worth keeping", cap(m.elements))
	}
}

// TestLoanSharesFixedPayloads: filled with share, a loan points a fixed
// element at the sender's array (capacity-clipped, still fixed, so a
// receiver that forwards it shares it again) and copies the rest, and its
// buffer is sized without the fixed bytes: a loan that carried a fixed
// payload larger than what a released Out keeps is still worth keeping, and
// its scribble leaves the sender's bytes alone. Filled without share, and
// cloned, everything is copied.
func TestLoanSharesFixedPayloads(t *testing.T) {
	fixed := append(make([]byte, 0, 2*maxPooledScratch), strings.Repeat("a", maxPooledScratch+1)...)
	want := string(fixed)
	src := New().AddFixed("pv", "Adv", fixed).AddString("pv", "Type", "referral")
	var l Loan
	l.Fill(src, true)
	adv, _ := l.Get("pv", "Adv")
	if !sameArray(adv, fixed) || cap(adv) != len(adv) || !l.Elements()[0].fixed {
		t.Fatalf("a shared fixed payload: same array %v, capacity %d of length %d, fixed %v",
			sameArray(adv, fixed), cap(adv), len(adv), l.Elements()[0].fixed)
	}
	if typ, _ := l.Get("pv", "Type"); string(typ) != "referral" || l.Elements()[1].fixed {
		t.Fatalf("the unmarked element reads %q, fixed %v", typ, l.Elements()[1].fixed)
	}
	if fwd := New().Append(&l.Message); !fwd.Elements()[0].fixed {
		t.Fatal("a forwarded shared payload lost its mark")
	}
	if cap(l.buf) != minLoanBuf {
		t.Fatalf("the loan's buffer holds %d bytes, want the %d-byte floor", cap(l.buf), minLoanBuf)
	}
	if !l.End(true) || string(fixed) != want {
		t.Fatal("a loan that shared a large fixed payload is not worth keeping, or its scribble reached the sender's bytes")
	}
	l.Fill(src, false)
	if adv, _ := l.Get("pv", "Adv"); sameArray(adv, fixed) || string(adv) != want || l.Elements()[0].fixed {
		t.Fatal("filled without share, the fixed payload was not copied")
	}
	if l.End(true); string(fixed) != want {
		t.Fatal("the scribble of a copied fixed payload reached the sender's bytes")
	}
	cp := src.Clone()
	if adv, _ := cp.Get("pv", "Adv"); sameArray(adv, fixed) || string(adv) != want || cp.Elements()[0].fixed {
		t.Fatal("Clone did not copy the fixed payload")
	}
}

// sameArray reports whether two non-empty slices start at the same byte.
func sameArray(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
