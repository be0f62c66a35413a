package message

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func sample() *Message {
	m := New()
	m.AddString("jxta", "SrcPeer", "urn:jxta:uuid-01")
	m.Add("jxta", "Payload", []byte{0x00, 0x01, 0xff})
	m.AddString("app", "Note", "hello")
	return m
}

func TestAddGet(t *testing.T) {
	m := sample()
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	if got := m.GetString("jxta", "SrcPeer"); got != "urn:jxta:uuid-01" {
		t.Fatalf("GetString = %q", got)
	}
	if data, ok := m.Get("jxta", "Payload"); !ok || len(data) != 3 || data[2] != 0xff {
		t.Fatalf("Get payload = %v, %v", data, ok)
	}
	if _, ok := m.Get("jxta", "Missing"); ok {
		t.Fatal("missing element reported present")
	}
	if m.GetString("none", "none") != "" {
		t.Fatal("missing GetString not empty")
	}
}

func TestGetFirstOfDuplicates(t *testing.T) {
	m := New()
	m.AddString("ns", "k", "first")
	m.AddString("ns", "k", "second")
	if got := m.GetString("ns", "k"); got != "first" {
		t.Fatalf("duplicate lookup = %q, want first", got)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	m := sample()
	back, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) {
		t.Fatalf("round trip changed message: %s vs %s", m, back)
	}
}

// TestUnmarshalOwnsItsBytes: the TCP reader decodes frames in place in its
// read buffer and overwrites them with the next read, so the message may keep
// nothing of the input; and one copy backs all elements, whose payloads must
// not be able to grow into one another.
func TestUnmarshalOwnsItsBytes(t *testing.T) {
	m := sample()
	for i := 0; i < 6; i++ {
		m.AddString("ns", "more", "value")
	}
	wire := m.Marshal()
	back, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xff
	}
	if !back.Equal(m) {
		t.Fatalf("message changed with the input it was decoded from: %s", back)
	}
	first := back.Elements()[0]
	_ = append(first.Data, "overflow"...)
	if !back.Equal(m) {
		t.Fatalf("appending to one payload changed the message: %s", back)
	}
	wire = m.Marshal()
	if a := testing.AllocsPerRun(100, func() { _, _ = Unmarshal(wire) }); a > 3 {
		t.Fatalf("decoding %d elements costs %.0f allocations, want at most 3", m.Len(), a)
	}
}

func TestEmptyMessageRoundTrip(t *testing.T) {
	back, err := Unmarshal(New().Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Fatalf("empty round trip has %d elements", back.Len())
	}
}

func TestUnmarshalErrors(t *testing.T) {
	valid := sample().Marshal()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE1234"),
		"truncated 1": valid[:len(valid)-2],
		"truncated 2": valid[:6],
		"trailing":    append(append([]byte{}, valid...), 0x00),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: Unmarshal succeeded", name)
		}
	}
}

func TestUnmarshalElementCountLimit(t *testing.T) {
	frame := []byte(magic)
	frame = append(frame, 0xff, 0xff, 0xff, 0xff, 0x7f) // huge uvarint count
	if _, err := Unmarshal(frame); err == nil {
		t.Fatal("huge element count accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := sample()
	cp := m.Clone()
	if !cp.Equal(m) {
		t.Fatal("clone differs")
	}
	data, _ := cp.Get("jxta", "Payload")
	data[0] = 0x99
	orig, _ := m.Get("jxta", "Payload")
	if orig[0] == 0x99 {
		t.Fatal("clone shares payload bytes")
	}
}

// TestCloneOwnsEverything: a clone points at nothing its source was built
// from — not the payload buffers, not the strings behind namespaces and
// names, which for a message decoded with UnmarshalAlias are views of the
// frame. Every one of those bytes is overwritten and the clone must still
// read as it did. (A clone that shared names passed every test until the
// transports began reusing delivered buffers: a walk body re-sent from a
// handler then carried names pointing into a recycled delivery.)
func TestCloneOwnsEverything(t *testing.T) {
	nsBuf, nameBuf, payload := []byte("jxta"), []byte("Payload"), []byte("bytes")
	built := New().Add(string(nsBuf), string(nameBuf), payload)
	// Names that are views of mutable memory, as UnmarshalAlias makes them.
	built.elements[0].Namespace = unsafe.String(&nsBuf[0], len(nsBuf))
	built.elements[0].Name = unsafe.String(&nameBuf[0], len(nameBuf))
	frame := sample().AddString("", "", "").Marshal()
	var aliased Message
	if err := aliased.UnmarshalAlias(frame); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		src     *Message
		sources [][]byte
	}{
		"built":          {built, [][]byte{nsBuf, nameBuf, payload}},
		"UnmarshalAlias": {&aliased, [][]byte{frame}},
	} {
		want, err := Unmarshal(c.src.Marshal()) // a reference that owns its bytes
		if err != nil {
			t.Fatal(err)
		}
		cp := c.src.Clone()
		if !cp.Equal(want) {
			t.Fatalf("%s: clone reads %s, want %s", name, cp, want)
		}
		for _, b := range c.sources {
			for i := range b {
				b[i] = 0xDB
			}
		}
		if !cp.Equal(want) {
			t.Errorf("%s: after its source was overwritten the clone reads %s, want %s", name, cp, want)
		}
		for _, el := range cp.Elements() {
			if cap(el.Data) != len(el.Data) {
				t.Errorf("%s: a cloned payload has spare capacity: an append would overwrite its neighbour", name)
			}
		}
	}
}

func TestSizeTracksContent(t *testing.T) {
	small := New().AddString("a", "b", "c")
	large := New().Add("a", "b", make([]byte, 10_000))
	if small.Size() <= 8 {
		t.Fatal("size missing element overhead")
	}
	if large.Size() < 10_000 {
		t.Fatal("size undercounts payload")
	}
	if got := len(small.Marshal()); got > small.Size()+16 {
		t.Fatalf("Size() estimate %d far from wire %d", small.Size(), got)
	}
}

func TestStringSummary(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "jxta:SrcPeer") || !strings.Contains(s, "app:Note") {
		t.Fatalf("String() = %q", s)
	}
}

func TestEqual(t *testing.T) {
	a := sample()
	b := sample()
	if !a.Equal(b) {
		t.Fatal("identical messages unequal")
	}
	b.AddString("x", "y", "z")
	if a.Equal(b) {
		t.Fatal("different lengths equal")
	}
	c := New().AddString("jxta", "SrcPeer", "other").
		Add("jxta", "Payload", []byte{0, 1, 0xff}).AddString("app", "Note", "hello")
	if a.Equal(c) {
		t.Fatal("different payloads equal")
	}
}

// Property: Marshal/Unmarshal is the identity for arbitrary element content,
// including empty and binary payloads.
func TestRoundTripProperty(t *testing.T) {
	f := func(ns, name string, data []byte, ns2, name2 string, data2 []byte) bool {
		m := New().Add(ns, name, data).Add(ns2, name2, data2)
		back, err := Unmarshal(m.Marshal())
		return err == nil && back.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzUnmarshal decodes arbitrary frames — the bytes a TCP peer controls. A
// frame is either rejected or decodes to a message that owns its bytes
// (overwriting the input afterwards changes nothing), keeps every payload
// capacity-clipped, and re-encodes to a frame that decodes to the same
// message. The seed corpus, which plain `go test` runs, is a valid frame and
// every one-byte corruption of it.
func FuzzUnmarshal(f *testing.F) {
	valid := sample().Marshal()
	f.Add(valid)
	f.Add(New().Marshal())
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("JXM1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	for i := range valid {
		mutated := bytes.Clone(valid)
		mutated[i] ^= 0xff
		f.Add(mutated)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		// The walker's aliasing decoder reads the same frames off the wire.
		var alias Message
		if aliasErr := alias.UnmarshalAlias(data); (aliasErr == nil) != (err == nil) || (err == nil && !alias.Equal(m)) {
			t.Fatalf("UnmarshalAlias: %v, %s; Unmarshal: %v, %v", aliasErr, &alias, err, m)
		}
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		want := m.Clone()
		for i := range data {
			data[i] ^= 0xff
		}
		if !m.Equal(want) {
			t.Fatalf("message changed with the input it was decoded from: %s", m)
		}
		for _, e := range m.Elements() {
			if cap(e.Data) != len(e.Data) {
				t.Fatalf("payload of %s:%s has %d bytes of spare capacity over its neighbour", e.Namespace, e.Name, cap(e.Data)-len(e.Data))
			}
		}
		back, err := Unmarshal(m.Marshal())
		if err != nil || !back.Equal(m) {
			t.Fatalf("re-encoded frame decodes to %v (%v), want %s", back, err, m)
		}
	})
}

// TestAppendAliasesAndResetReleases: the two operations the endpoint builds
// its pooled wire messages from.
func TestAppendAliasesAndResetReleases(t *testing.T) {
	payload := []byte("payload")
	src := New().Add("a", "one", payload).AddString("a", "two", "2")
	wire := New().AddString("w", "head", "h").Append(src).AddString("w", "tail", "t")
	if got := wire.String(); got != "msg{w:head(1B), a:one(7B), a:two(1B), w:tail(1B)}" {
		t.Fatalf("Append produced %s", got)
	}
	if one, _ := wire.Get("a", "one"); &one[0] != &payload[0] {
		t.Fatal("Append copied a payload")
	}
	if src.Len() != 2 {
		t.Fatalf("Append changed its argument: %s", src)
	}
	for i := 0; i < 8; i++ { // grow past the inline storage
		wire.Append(src)
	}
	grown := cap(wire.Elements())
	wire.Reset()
	if wire.Len() != 0 || wire.Size() != New().Size() {
		t.Fatalf("Reset left %s", wire)
	}
	for _, e := range wire.Elements()[:grown] {
		if e.Data != nil || e.Name != "" {
			t.Fatal("Reset kept a reference to a payload")
		}
	}
	if n := testing.AllocsPerRun(100, func() { wire.Append(src).Append(src).Append(src).Reset() }); n != 0 {
		t.Fatalf("refilling a reset message costs %.0f allocations, want 0", n)
	}
}

func BenchmarkMarshal(b *testing.B) {
	m := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Marshal()
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	data := sample().Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClone(b *testing.B) {
	m := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Clone()
	}
}

// Property: Size() stays within a small constant factor of the true wire
// length (the network model charges latency by it).
func TestSizeTracksWireLengthProperty(t *testing.T) {
	f := func(ns, name string, data []byte) bool {
		m := New().Add(ns, name, data)
		wire := len(m.Marshal())
		est := m.Size()
		return est >= wire/2 && est <= wire*2+32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Equal reports whether two messages have identical element sequences.
func (m *Message) Equal(o *Message) bool {
	if m.Len() != o.Len() {
		return false
	}
	for i, e := range m.elements {
		oe := o.elements[i]
		if e.Namespace != oe.Namespace || e.Name != oe.Name || string(e.Data) != string(oe.Data) {
			return false
		}
	}
	return true
}
