package ids

import (
	"bytes"
	"cmp"
	"crypto/sha1"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindPeer:   "peer",
		KindGroup:  "group",
		KindAdv:    "adv",
		KindPipe:   "pipe",
		KindModule: "module",
		KindQuery:  "query",
		Kind(99):   "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNewRandomDeterministic(t *testing.T) {
	a := NewRandom(KindPeer, rand.New(rand.NewSource(7)))
	b := NewRandom(KindPeer, rand.New(rand.NewSource(7)))
	if !a.Equal(b) {
		t.Fatalf("same seed produced different IDs: %s vs %s", a, b)
	}
	c := NewRandom(KindPeer, rand.New(rand.NewSource(8)))
	if a.Equal(c) {
		t.Fatalf("different seeds produced identical IDs: %s", a)
	}
}

func TestNewRandomPanicsOnNilRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRandom(nil) did not panic")
		}
	}()
	NewRandom(KindPeer, nil)
}

func TestNewRandomSetsUUIDBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		id := NewRandom(KindAdv, rng)
		u := id.uuid
		if u[6]&0xf0 != 0x40 {
			t.Fatalf("version nibble not 4: %x", u[6])
		}
		if u[8]&0xc0 != 0x80 {
			t.Fatalf("variant bits not RFC4122: %x", u[8])
		}
	}
}

func TestFromNameStable(t *testing.T) {
	a := FromName(KindGroup, "NetPeerGroup")
	b := FromName(KindGroup, "NetPeerGroup")
	if !a.Equal(b) {
		t.Fatal("FromName is not stable")
	}
	if a.Equal(FromName(KindGroup, "OtherGroup")) {
		t.Fatal("distinct names collided")
	}
	if a.Equal(FromName(KindPeer, "NetPeerGroup")) {
		t.Fatal("distinct kinds collided for the same name")
	}
}

// fromNameReference is FromName as it was first written: the hash of a
// concatenated string. FromName must derive the same IDs from its stack
// buffer, or every ID a name names changes.
func fromNameReference(kind Kind, name string) ID {
	sum := sha1.Sum([]byte(string(rune(kind)) + ":" + name))
	id := ID{kind: kind}
	copy(id.uuid[:], sum[:16])
	return id
}

// TestFromNameMatchesReference: every kind, and kinds past the named ones
// whose rune takes two UTF-8 bytes, with names around and well past the
// stack buffer.
func TestFromNameMatchesReference(t *testing.T) {
	for k := 0; k < 256; k++ {
		for _, n := range []int{0, 1, fromNameRoom - 3, fromNameRoom - 2, fromNameRoom - 1, fromNameRoom, 1000} {
			name := strings.Repeat("n", n)
			if got, want := FromName(Kind(k), name), fromNameReference(Kind(k), name); got != want {
				t.Fatalf("kind %d, name of %d bytes: FromName = %x/%d, want %x/%d", k, n, got.uuid, got.kind, want.uuid, want.kind)
			}
		}
	}
}

// TestFromNameAllocs: a name that fits the stack buffer is hashed without
// allocating; the concatenated string cost one object per call.
func TestFromNameAllocs(t *testing.T) {
	name := strings.Repeat("n", fromNameRoom-2)
	if got := testing.AllocsPerRun(100, func() { FromName(KindAdv, name) }); got != 0 {
		t.Errorf("FromName costs %.0f objects, want 0", got)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kinds := []Kind{KindPeer, KindGroup, KindAdv, KindPipe, KindModule, KindQuery}
	for _, k := range kinds {
		id := NewRandom(k, rng)
		back, err := Parse(id.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", id.String(), err)
		}
		if !back.Equal(id) {
			t.Fatalf("round trip changed ID: %s -> %s", id, back)
		}
	}
	// Nil round-trips too.
	back, err := Parse(Nil.String())
	if err != nil || !back.IsNil() {
		t.Fatalf("nil round trip: %v %v", back, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"uuid-abcd",
		"urn:jxta:uuid-zzzz-peer",
		"urn:jxta:uuid-abcd-peer",           // too short
		"urn:jxta:uuid-" + h32() + "-bogus", // unknown kind
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func h32() string {
	const hexDigits = "0123456789abcdef"
	b := make([]byte, 32)
	for i := range b {
		b[i] = hexDigits[i%16]
	}
	return string(b)
}

func TestParsePlainFormDefaultsToPeer(t *testing.T) {
	id, err := Parse("urn:jxta:uuid-" + h32())
	if err != nil {
		t.Fatal(err)
	}
	if id.kind != KindPeer {
		t.Fatalf("plain form kind = %v, want peer", id.kind)
	}
}

func TestMarshalTextRoundTrip(t *testing.T) {
	id := FromName(KindPipe, "pipe-x")
	text, err := id.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back ID
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(id) {
		t.Fatalf("text round trip changed ID")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idsList := make([]ID, 200)
	for i := range idsList {
		idsList[i] = NewRandom(KindPeer, rng)
	}
	SortIDs(idsList)
	if !sort.SliceIsSorted(idsList, func(i, j int) bool { return idsList[i].Less(idsList[j]) }) {
		t.Fatal("SortIDs did not sort")
	}
	for i := 1; i < len(idsList); i++ {
		if idsList[i].Less(idsList[i-1]) {
			t.Fatal("order violated")
		}
	}
}

func TestSortIDsSmall(t *testing.T) {
	for n := 0; n < 15; n++ {
		rng := rand.New(rand.NewSource(int64(n)))
		s := make([]ID, n)
		for i := range s {
			s[i] = NewRandom(KindPeer, rng)
		}
		SortIDs(s)
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Less(s[j]) }) {
			t.Fatalf("n=%d: not sorted", n)
		}
	}
}

// Property: Compare is antisymmetric and consistent with Equal.
func TestCompareProperties(t *testing.T) {
	f := func(a, b [16]byte, ka, kb uint8) bool {
		ia := ID{kind: Kind(ka%6 + 1), uuid: a}
		ib := ID{kind: Kind(kb%6 + 1), uuid: b}
		c1, c2 := ia.Compare(ib), ib.Compare(ia)
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == ia.Equal(ib)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzIDCompare holds Compare, which reads the UUID as two big-endian
// words, to the order it stands for: the UUID's bytes compared as a string,
// then the kind. The peerview, the rumor store and the replica mapping all
// sort and search by it. Prefix must agree with it: the peerview orders by
// the prefix before it compares IDs. The seeds differ at the first and last
// byte of each word, or only in the kind.
func FuzzIDCompare(f *testing.F) {
	var zero [16]byte
	f.Add(zero[:], zero[:], byte(KindPeer), byte(KindGroup))
	for _, at := range []int{0, 7, 8, 15} {
		a, b := bytes.Repeat([]byte{0x5a}, 16), bytes.Repeat([]byte{0x5a}, 16)
		b[at] = 0xa5
		f.Add(a, b, byte(KindPeer), byte(KindPeer))
		f.Add(b, a, byte(KindAdv), byte(KindPeer))
	}
	f.Fuzz(func(t *testing.T, ua, ub []byte, ka, kb byte) {
		a, b := ID{kind: Kind(ka)}, ID{kind: Kind(kb)}
		copy(a.uuid[:], ua)
		copy(b.uuid[:], ub)
		want := bytes.Compare(a.uuid[:], b.uuid[:])
		if want == 0 {
			want = cmp.Compare(a.kind, b.kind)
		}
		if got := a.Compare(b); got != want {
			t.Fatalf("%x/%d vs %x/%d: Compare = %d, want %d", a.uuid, a.kind, b.uuid, b.kind, got, want)
		}
		if a.Prefix() < b.Prefix() && want >= 0 {
			t.Fatalf("%x/%d vs %x/%d: Prefix %#x < %#x, but Compare = %d", a.uuid, a.kind, b.uuid, b.kind, a.Prefix(), b.Prefix(), want)
		}
	})
}

// Property: Parse(String(id)) is the identity.
func TestRoundTripProperty(t *testing.T) {
	f := func(u [16]byte, k uint8) bool {
		id := ID{kind: Kind(k%6 + 1), uuid: u}
		back, err := Parse(id.String())
		return err == nil && back.Equal(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the bytes forms agree with the string forms. AppendString writes
// exactly String() after whatever dst holds, and ParseBytes(b) is
// Parse(string(b)) — same ID, same verdict — on URNs, on URNs with a byte
// damaged, and on junk; neither allocates on a well-formed URN.
func TestBytesFormsMatchStringForms(t *testing.T) {
	agree := func(b []byte) bool {
		want, wantErr := Parse(string(b))
		got, gotErr := ParseBytes(b)
		return got == want && (gotErr == nil) == (wantErr == nil)
	}
	urn := func(u [16]byte, k uint8, nilID bool) bool {
		id := ID{kind: Kind(k % 8), uuid: u} // kinds 0 and 7 are outside the namespaces
		if nilID {
			id = Nil
		}
		b := id.AppendString([]byte("dst:"))
		return string(b) == "dst:"+id.String() && agree(b[4:]) &&
			string(id.AppendShort([]byte("dst:"))) == "dst:"+id.Short()
	}
	damaged := func(u [16]byte, k uint8, at uint8, with byte) bool {
		b := ID{kind: Kind(k%6 + 1), uuid: u}.AppendString(nil)
		b[int(at)%len(b)] = with
		return agree(b) && agree(b[:int(at)%len(b)])
	}
	for _, f := range []any{urn, damaged, agree} {
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	id := ID{kind: KindPeer, uuid: [16]byte{1, 2, 3}}
	var scratch [64]byte
	if n := testing.AllocsPerRun(100, func() {
		if back, err := ParseBytes(id.AppendString(scratch[:0])); err != nil || back != id {
			t.Fatal(back, err)
		}
	}); n != 0 {
		t.Fatalf("AppendString + ParseBytes cost %.0f allocations, want 0", n)
	}
}

// Property: sorting is idempotent and a permutation.
func TestSortProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make([]ID, int(n%64))
		for i := range s {
			s[i] = NewRandom(KindPeer, rng)
		}
		count := map[ID]int{}
		for _, id := range s {
			count[id]++
		}
		SortIDs(s)
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Less(s[j]) }) {
			return false
		}
		for _, id := range s {
			count[id]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShort(t *testing.T) {
	if Nil.Short() != "nil" {
		t.Fatalf("Nil.Short() = %q", Nil.Short())
	}
	id := FromName(KindPeer, "x")
	if len(id.Short()) != 8 {
		t.Fatalf("Short() length = %d, want 8", len(id.Short()))
	}
}

func BenchmarkSortIDs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]ID, 580)
	for i := range base {
		base[i] = NewRandom(KindPeer, rng)
	}
	s := make([]ID, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s, base)
		SortIDs(s)
	}
}
