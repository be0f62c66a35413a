package peerview

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"jxta/internal/ids"
	"jxta/internal/transport"
)

// The codec the lease protocol had before its records were written by append
// and read in place, kept as the reference the new one is held to: every
// function below builds strings and is the parent commit's, verbatim.

func refRumorSig(sd Seed) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sd.ID.String()))
	h.Write([]byte{'|'})
	h.Write([]byte(sd.Addr))
	return h.Sum64()
}

func refEncodeRumor(r Rumor) string {
	return r.ID.String() + " " + string(r.Addr) + " " + strconv.FormatUint(r.Sig, 16)
}

func refParseRumor(v string) (Rumor, bool) {
	fields := strings.Fields(v)
	if len(fields) != 3 {
		return Rumor{}, false
	}
	id, err := ids.Parse(fields[0])
	if err != nil {
		return Rumor{}, false
	}
	sig, err := strconv.ParseUint(fields[2], 16, 64)
	if err != nil {
		return Rumor{}, false
	}
	r := Rumor{Seed: Seed{ID: id, Addr: transport.Addr(fields[1])}, Sig: sig}
	if r.Sig != refRumorSig(r.Seed) {
		return Rumor{}, false
	}
	return r, true
}

func refEncodeSeed(sd Seed) string { return sd.ID.String() + " " + string(sd.Addr) }

func refParseSeed(v string) (Seed, bool) {
	idStr, addr, found := strings.Cut(v, " ")
	if !found {
		return Seed{}, false
	}
	id, err := ids.Parse(idStr)
	if err != nil {
		return Seed{}, false
	}
	return Seed{ID: id, Addr: transport.Addr(addr)}, true
}

// refParseRecord is how receiveHandoff read "id addr remaining".
func refParseRecord(v string) (Seed, string, bool) {
	fields := strings.Fields(v)
	if len(fields) != 3 {
		return Seed{}, "", false
	}
	sd, ok := refParseSeed(fields[0] + " " + fields[1])
	if !ok {
		return Seed{}, "", false
	}
	return sd, fields[2], true
}

// checkCodec holds the three readers to their references on one input: the
// same accept or reject, the same ID, address and tail; and what was
// accepted re-encodes, by append, to what the reference encoder makes of it.
// One departure is deliberate: a record naming the nil ID is refused, since
// the nil ID names no peer.
func checkCodec(t *testing.T, b []byte) {
	t.Helper()
	in := string(b) // the references read a copy: the readers under test view b

	r, ok := ParseRumorBytes(b)
	want, wantOK := refParseRumor(in)
	if want.ID.IsNil() {
		want, wantOK = Rumor{}, false
	}
	if ok != wantOK || r != want {
		t.Fatalf("ParseRumorBytes(%q) = %+v, %v; the string parser says %+v, %v", in, r, ok, want, wantOK)
	}
	if ok {
		if got := r.AppendEncode([]byte("x")); string(got) != "x"+refEncodeRumor(want) {
			t.Fatalf("Rumor.AppendEncode = %q, want %q after the prefix", got, refEncodeRumor(want))
		}
	}

	sd, ok := ParseSeedBytes(b)
	wantSeed, wantOK := refParseSeed(in)
	if wantSeed.ID.IsNil() {
		wantSeed, wantOK = Seed{}, false
	}
	if ok != wantOK || sd != wantSeed {
		t.Fatalf("ParseSeedBytes(%q) = %+v, %v; the string parser says %+v, %v", in, sd, ok, wantSeed, wantOK)
	}
	if ok {
		if got := sd.AppendEncode([]byte("x")); string(got) != "x"+refEncodeSeed(wantSeed) {
			t.Fatalf("Seed.AppendEncode = %q, want %q after the prefix", got, refEncodeSeed(wantSeed))
		}
		if sig := rumorSig(sd); sig != refRumorSig(wantSeed) {
			t.Fatalf("rumorSig(%+v) = %x, hash/fnv says %x", sd, sig, refRumorSig(wantSeed))
		}
	}

	sd, tail, ok := ParseRecordBytes(b)
	wantSeed, wantTail, wantOK := refParseRecord(in)
	if wantSeed.ID.IsNil() {
		wantSeed, wantTail, wantOK = Seed{}, "", false
	}
	if ok != wantOK || sd != wantSeed || string(tail) != wantTail {
		t.Fatalf("ParseRecordBytes(%q) = %+v, %q, %v; the string parser says %+v, %q, %v", in, sd, tail, ok, wantSeed, wantTail, wantOK)
	}
	if string(b) != in {
		t.Fatalf("a reader wrote to its input: %q became %q", in, b)
	}
}

// codecCorpus is records a peer writes, and the ways of splitting one that
// strings.Fields and strings.Cut disagree about or that only the Unicode
// path sees.
func codecCorpus() [][]byte {
	sd := Seed{ID: ids.FromName(ids.KindPeer, "corpus"), Addr: "sim://3/rdv-12"}
	r := NewRumor(sd)
	rumor, seed := string(r.AppendEncode(nil)), string(sd.AppendEncode(nil))
	sig := strconv.FormatUint(r.Sig, 16)
	return [][]byte{
		[]byte(rumor),
		[]byte(seed),
		[]byte(seed + " 60000000000"), // a handed-off lease
		[]byte(strings.Replace(rumor, " ", "  ", 1)),                  // a double space: three fields, but Cut's address starts with one
		[]byte(strings.ReplaceAll(rumor, " ", "\t")),                  // tabs: fields, and no seed at all
		[]byte(" \n" + rumor + "\r\v\f"),                              // white space around
		[]byte(strings.ReplaceAll(rumor, " ", "\u0085")),              // NEL separates fields only on the Unicode path
		[]byte(strings.Replace(rumor, " ", "\u00a0", 1)),              // so does NBSP
		[]byte(strings.TrimSuffix(rumor, sig) + strings.ToUpper(sig)), // upper-case hex verifies too
		[]byte(strings.ToUpper(sd.ID.String()[14:46]) + " a " + sig),  // a bare, upper-case UUID is no URN
		[]byte(sd.ID.String() + " "),                                  // an empty address: a seed, not a rumor
		[]byte(sd.ID.String() + "  " + sig),                           // empty address, two fields
		[]byte(rumor + " extra"),                                      // four fields
		[]byte(seed + " 0x1f"),                                        // not hex as ParseUint reads it
		[]byte(seed + " \xff" + sig),                                  // invalid UTF-8 is no space
		// a checksummed rumor naming no peer
		[]byte("urn:jxta:nil sim://x " + strconv.FormatUint(NewRumor(Seed{Addr: "sim://x"}).Sig, 16)),
		[]byte("urn:jxta:nil sim://x"), // a tier member naming no peer
		{}, []byte(" "), []byte("garbage"),
	}
}

func TestRumorCodecMatchesStringCodec(t *testing.T) {
	for _, b := range codecCorpus() {
		checkCodec(t, b)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		addr := make([]byte, rng.Intn(40))
		for j := range addr {
			addr[j] = byte('!' + rng.Intn(94)) // printable, no space
		}
		sd := Seed{ID: ids.NewRandom(ids.Kind(1+rng.Intn(6)), rng), Addr: transport.Addr(addr)}
		if got, want := rumorSig(sd), refRumorSig(sd); got != want {
			t.Fatalf("rumorSig(%+v) = %x, hash/fnv says %x", sd, got, want)
		}
		checkCodec(t, NewRumor(sd).AppendEncode(nil))
		checkCodec(t, sd.AppendEncode(nil))
	}
}

// TestRumorCodecAllocatesNothing: a rumor is checksummed, written and read
// back without touching the heap; the address it is read with is a view of
// the record, and Clone gives it one of its own.
func TestRumorCodecAllocatesNothing(t *testing.T) {
	r := NewRumor(Seed{ID: ids.FromName(ids.KindPeer, "a"), Addr: "sim://0/rdv-a"})
	buf := make([]byte, 0, 128)
	var back Rumor
	if got := testing.AllocsPerRun(100, func() {
		buf = NewRumor(r.Seed).AppendEncode(buf[:0])
		back, _ = ParseRumorBytes(buf)
	}); got != 0 {
		t.Errorf("checksum + encode + parse allocate %.0f objects, want 0", got)
	}
	if back != r {
		t.Fatalf("read back %+v, wrote %+v", back, r)
	}
	own := back.Seed.Clone()
	for i := range buf {
		buf[i] = 0xDB
	}
	if back.Addr == r.Addr || own.Addr != r.Addr {
		t.Fatalf("after the record was overwritten the view reads %q and the clone %q", back.Addr, own.Addr)
	}
}

// FuzzRumorCodec: for arbitrary bytes the in-place readers accept, reject
// and return exactly what the string codec they replaced does (checkCodec).
func FuzzRumorCodec(f *testing.F) {
	for _, b := range codecCorpus() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkCodec(t, bytes.Clone(b)) })
}
