package advstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"jxta/internal/advertisement"
	"jxta/internal/ids"
)

// randText draws a short printable string that includes the characters the
// codec escapes, so canonical and wire forms genuinely differ.
func randText(r *rand.Rand) string {
	const alphabet = `abcXYZ019 _-.:/&<>"'`
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// randAdv draws one advertisement of each of the six types in turn.
func randAdv(r *rand.Rand, i int) advertisement.Advertisement {
	switch i % 6 {
	case 0:
		p := &advertisement.Peer{PeerID: ids.NewRandom(ids.KindPeer, r), Name: randText(r), Desc: randText(r)}
		for n := r.Intn(3); n > 0; n-- {
			p.Addresses = append(p.Addresses, "tcp://"+randText(r))
		}
		return p
	case 1:
		return &advertisement.Rdv{PeerID: ids.NewRandom(ids.KindPeer, r),
			GroupID: ids.NewRandom(ids.KindGroup, r), Name: randText(r), Address: "sim://" + randText(r)}
	case 2:
		rt := &advertisement.Route{DestID: ids.NewRandom(ids.KindPeer, r)}
		for n := r.Intn(4); n > 0; n-- {
			rt.Hops = append(rt.Hops, ids.NewRandom(ids.KindPeer, r))
		}
		return rt
	case 3:
		return &advertisement.Pipe{PipeID: ids.NewRandom(ids.KindPipe, r), Name: randText(r), Kind: "JxtaUnicast"}
	case 4:
		return &advertisement.Module{ModuleID: ids.NewRandom(ids.KindModule, r), Name: randText(r), Desc: randText(r)}
	default:
		res := &advertisement.Resource{ResID: ids.NewRandom(ids.KindAdv, r), Name: randText(r)}
		for n := r.Intn(3); n > 0; n-- {
			res.Attrs = append(res.Attrs, advertisement.IndexField{Attr: "k" + randText(r), Value: randText(r)})
		}
		return res
	}
}

func mustEncode(t testing.TB, a advertisement.Advertisement) []byte {
	t.Helper()
	enc, err := advertisement.EncodeXML(a)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// foreignForm rewrites a canonical encoding the way another implementation
// might send the same document: an XML prolog, line breaks and indentation
// between elements, a space inside end tags and the named quote entities.
// Escaped text never holds a raw '<', so "</" only ever starts an end tag.
func foreignForm(canon []byte) []byte {
	s := string(canon)
	open := strings.IndexByte(s, '>') + 1
	body := strings.ReplaceAll(s[open:], "&#34;", "&quot;")
	body = strings.ReplaceAll(body, "&#39;", "&apos;")
	var out strings.Builder
	out.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" + s[:open] + "\n  ")
	for {
		i := strings.Index(body, "</")
		if i < 0 {
			break
		}
		end := i + strings.IndexByte(body[i:], '>')
		out.WriteString(body[:end] + " >")
		if body = body[end+1:]; strings.HasPrefix(body, "<") {
			out.WriteString("\r\n\t")
		}
	}
	out.WriteString(body)
	return []byte(out.String())
}

func refsOf(sh *Shared) int64 {
	sh.store.mu.Lock()
	defer sh.store.mu.Unlock()
	return sh.refs
}

// (a) A handle interned from the canonical bytes and one interned from the
// decoded value are the same handle, in either order, and Bytes is the
// canonical encoding byte for byte.
func TestInternBytesMatchesInternProperty(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 600; i++ {
		s := New()
		a := randAdv(r, i)
		enc := mustEncode(t, a)
		var fromValue, fromBytes *Shared
		var err error
		if i%2 == 0 {
			fromValue = s.Intern(a)
			fromBytes, err = s.InternBytes(enc)
		} else {
			fromBytes, err = s.InternBytes(enc)
			fromValue = s.Intern(a)
		}
		if err != nil {
			t.Fatalf("%T: %v", a, err)
		}
		if fromValue != fromBytes {
			t.Fatalf("%T %q: Intern and InternBytes returned distinct handles", a, enc)
		}
		if got := fromBytes.Bytes(); !bytes.Equal(got, enc) {
			t.Fatalf("%T: Bytes = %q, want %q", a, got, enc)
		}
		if &fromBytes.Bytes()[0] != &fromValue.Bytes()[0] {
			t.Fatalf("%T: Bytes re-encoded instead of returning the retained encoding", a)
		}
		if s.Len() != 1 || refsOf(fromBytes) != 2 {
			t.Fatalf("%T: Len=%d refs=%d, want 1, 2", a, s.Len(), refsOf(fromBytes))
		}
		fromValue.Release()
		fromBytes.Release()
		if s.Len() != 0 {
			t.Fatalf("%T: handle survived its last release", a)
		}
	}
}

// The wire slice is only read: the handle keeps a private copy, so a
// receiver reusing its buffer cannot corrupt the store.
func TestInternBytesDoesNotRetainWire(t *testing.T) {
	s := New()
	enc := mustEncode(t, resAdv("cpu"))
	wire := append([]byte(nil), enc...)
	sh, err := s.InternBytes(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 'x'
	}
	if !bytes.Equal(sh.Bytes(), enc) {
		t.Fatal("handle's encoding aliased the caller's buffer")
	}
	if again, _ := s.InternBytes(enc); again != sh {
		t.Fatal("canonical bytes no longer find the handle")
	}
}

// (b) A differently formatted but equal document lands on the canonical
// handle, whichever form arrives first.
func TestInternBytesForeignFormProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 600; i++ {
		s := New()
		a := randAdv(r, i)
		enc := mustEncode(t, a)
		foreign := foreignForm(enc)
		if bytes.Equal(foreign, enc) {
			t.Fatal("foreign form is the canonical form; the test proves nothing")
		}
		var canon *Shared
		if i%2 == 0 {
			canon = s.Intern(a)
		}
		sh, err := s.InternBytes(foreign)
		if err != nil {
			t.Fatalf("%T %q: %v", a, foreign, err)
		}
		if canon == nil {
			canon = s.Intern(a)
		}
		if sh != canon {
			t.Fatalf("%T %q: foreign form got its own handle", a, foreign)
		}
		if !bytes.Equal(sh.Bytes(), enc) {
			t.Fatalf("%T: Bytes = %q, want canonical %q", a, sh.Bytes(), enc)
		}
		if s.Len() != 1 {
			t.Fatalf("%T: Len = %d, want 1", a, s.Len())
		}
	}
}

// (c) Malformed bytes return an error and change nothing.
func TestInternBytesMalformedLeavesStoreUntouched(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	s := New()
	var held []*Shared
	for i := 0; i < 6; i++ {
		held = append(held, s.Intern(randAdv(r, i)))
	}
	hits, misses := s.Stats()
	bad := [][]byte{
		nil,
		[]byte("not xml"),
		[]byte("<jxta:Unknown><Id>x</Id></jxta:Unknown>"),
		[]byte("<jxta:RdvAdvertisement><Name>no ids</Name></jxta:RdvAdvertisement>"),
		[]byte("<jxta:PA><PID>urn:jxta:garbage</PID></jxta:PA>"),
	}
	for i := 0; i < 200; i++ {
		enc := mustEncode(t, randAdv(r, i))
		bad = append(bad, enc[:r.Intn(len(enc))]) // truncated mid-document
	}
	for _, wire := range bad {
		sh, err := s.InternBytes(wire)
		if err == nil || sh != nil {
			t.Fatalf("InternBytes(%q) = %v, %v; want an error", wire, sh, err)
		}
	}
	if s.Len() != len(held) {
		t.Fatalf("Len = %d after malformed input, want %d", s.Len(), len(held))
	}
	for _, sh := range held {
		if refsOf(sh) != 1 {
			t.Fatalf("refs = %d after malformed input, want 1", refsOf(sh))
		}
	}
	if h, m := s.Stats(); h != hits || m != misses {
		t.Fatalf("stats moved from %d/%d to %d/%d on malformed input", hits, misses, h, m)
	}
}

// (d) Two different documents forced onto one key never share a handle:
// the second gets a private one.
func TestInternBytesKeyCollisionNeverAliases(t *testing.T) {
	oneKey = true
	defer func() { oneKey = false }()

	a, b := resAdv("cpu"), resAdv("disk")
	encA, encB := mustEncode(t, a), mustEncode(t, b)
	for _, tc := range []struct {
		name   string
		first  func(*Store) *Shared
		second func(*Store) (*Shared, error)
	}{
		{"bytes then bytes",
			func(s *Store) *Shared { sh, _ := s.InternBytes(encA); return sh },
			func(s *Store) (*Shared, error) { return s.InternBytes(encB) }},
		{"value then bytes",
			func(s *Store) *Shared { return s.Intern(a) },
			func(s *Store) (*Shared, error) { return s.InternBytes(encB) }},
		{"bytes then value",
			func(s *Store) *Shared { sh, _ := s.InternBytes(encA); return sh },
			func(s *Store) (*Shared, error) { return s.Intern(b), nil }},
	} {
		s := New()
		ha := tc.first(s)
		hb, err := tc.second(s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ha == hb {
			t.Fatalf("%s: colliding documents aliased one handle", tc.name)
		}
		if got := hb.Adv().(*advertisement.Resource).Name; got != "disk" {
			t.Fatalf("%s: second handle holds %q", tc.name, got)
		}
		if !bytes.Equal(ha.Bytes(), encA) || !bytes.Equal(hb.Bytes(), encB) {
			t.Fatalf("%s: handles carry the wrong encodings", tc.name)
		}
		// The same document still finds its own handle under the forced key.
		if again, _ := s.InternBytes(encA); again != ha {
			t.Fatalf("%s: first document lost its handle", tc.name)
		}
		hb.Release() // private: a no-op
		ha.Release()
		ha.Release()
		if s.Len() != 0 {
			t.Fatalf("%s: Len = %d after releases", tc.name, s.Len())
		}
	}
}

// (e) Against a model: after any sequence of interns (by value, by canonical
// bytes, by foreign bytes), retains and releases, each handle's refcount is
// its number of holders and Len counts the documents that have one.
func TestInternBytesRefcountModelProperty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s := New()
	const docs = 12
	advs := make([]advertisement.Advertisement, docs)
	encs := make([][]byte, docs)
	for i := range advs {
		advs[i] = randAdv(r, i)
		encs[i] = mustEncode(t, advs[i])
	}
	holders := make([][]*Shared, docs) // one element per reference held
	for step := 0; step < 5000; step++ {
		d := r.Intn(docs)
		switch op := r.Intn(6); {
		case op == 0:
			holders[d] = append(holders[d], s.Intern(advs[d]))
		case op == 1 || op == 2:
			wire := encs[d]
			if op == 2 {
				wire = foreignForm(wire)
			}
			sh, err := s.InternBytes(wire)
			if err != nil {
				t.Fatal(err)
			}
			holders[d] = append(holders[d], sh)
		case op == 3 && len(holders[d]) > 0:
			holders[d] = append(holders[d], holders[d][0].Retain())
		case len(holders[d]) > 0:
			last := len(holders[d]) - 1
			holders[d][last].Release()
			holders[d] = holders[d][:last]
		}
		live := 0
		for i, hs := range holders {
			if len(hs) == 0 {
				continue
			}
			live++
			for _, sh := range hs {
				if sh != hs[0] {
					t.Fatalf("step %d: document %d held through two handles", step, i)
				}
			}
			if got := refsOf(hs[0]); got != int64(len(hs)) {
				t.Fatalf("step %d: document %d refs = %d, holders = %d", step, i, got, len(hs))
			}
		}
		if s.Len() != live {
			t.Fatalf("step %d: Len = %d, documents held = %d", step, s.Len(), live)
		}
	}
	for _, hs := range holders {
		for _, sh := range hs {
			sh.Release()
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after releasing every holder", s.Len())
	}
}

// Bytes fills lazily from any number of goroutines (shard workers sending
// referrals) while others intern the same bytes; run under -race.
func TestBytesConcurrentLazyFill(t *testing.T) {
	s := New()
	a := resAdv("cpu")
	enc := mustEncode(t, a)
	sh := s.Intern(a)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !bytes.Equal(sh.Bytes(), enc) {
					t.Errorf("Bytes = %q", sh.Bytes())
					return
				}
				if g%2 == 0 {
					h, err := s.InternBytes(enc)
					if err != nil || h != sh {
						t.Errorf("InternBytes = %p, %v; want %p", h, err, sh)
						return
					}
					h.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	sh.Release()
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

// documentCorpus reads internal/document's fuzz seed corpus ("go test fuzz
// v1" files holding one []byte literal each).
func documentCorpus(t testing.TB) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "document", "testdata", "fuzz", "FuzzUnmarshal", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("document fuzz corpus not found: %v", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		if len(lines) != 2 {
			t.Fatalf("%s: not a fuzz corpus file", f)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzInternBytes feeds the store arbitrary bytes, as a TCP peer can. For
// every input: no panic; a rejected input leaves the store empty; an accepted
// one yields a handle whose Bytes is the canonical encoding of its Adv, which
// both InternBytes(Bytes) and Intern(Adv) find again; and releasing every
// reference empties the store.
func FuzzInternBytes(f *testing.F) {
	for _, seed := range documentCorpus(f) {
		f.Add(seed)
	}
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 12; i++ {
		enc := mustEncode(f, randAdv(r, i))
		f.Add(enc)
		f.Add(foreignForm(enc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		sh, err := s.InternBytes(data)
		if err != nil {
			if sh != nil || s.Len() != 0 {
				t.Fatalf("rejected input left a handle: %v, Len=%d", sh, s.Len())
			}
			return
		}
		canon, err := advertisement.EncodeXML(sh.Adv())
		if err != nil {
			t.Fatalf("accepted advertisement does not encode: %v", err)
		}
		if !bytes.Equal(sh.Bytes(), canon) {
			t.Fatalf("Bytes = %q, canonical = %q", sh.Bytes(), canon)
		}
		again, err := s.InternBytes(sh.Bytes())
		if err != nil || again != sh {
			t.Fatalf("canonical bytes did not find their handle: %p, %v", again, err)
		}
		if byValue := s.Intern(sh.Adv()); byValue != sh {
			t.Fatal("Intern(Adv) did not find the handle")
		}
		if s.Len() != 1 {
			t.Fatalf("Len = %d, want 1", s.Len())
		}
		for i := 0; i < 3; i++ {
			sh.Release()
		}
		if s.Len() != 0 {
			t.Fatalf("Len = %d after releasing every reference", s.Len())
		}
	})
}

// The two ways onto an existing handle: from a decoded value (one encode to
// find it) and from wire bytes (a hash and a comparison, no allocation).
func BenchmarkInternHit(b *testing.B) {
	s := New()
	a := resAdv("cpu")
	s.Intern(a)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Intern(a).Release()
	}
}

func BenchmarkInternBytesHit(b *testing.B) {
	s := New()
	enc := s.Intern(resAdv("cpu")).Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh, err := s.InternBytes(enc)
		if err != nil {
			b.Fatal(err)
		}
		sh.Release()
	}
}
