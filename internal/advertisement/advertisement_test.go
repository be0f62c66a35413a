package advertisement

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"jxta/internal/ids"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestIndexFieldKeyMatchesPaper(t *testing.T) {
	// §3.3: hash input is type + attribute + value, "PeerNameTest".
	f := IndexField{Attr: "Name", Value: "Test"}
	if got := f.Key("Peer"); got != "PeerNameTest" {
		t.Fatalf("Key = %q, want PeerNameTest", got)
	}
}

func TestPeerRoundTrip(t *testing.T) {
	r := rng()
	p := &Peer{
		PeerID:    ids.NewRandom(ids.KindPeer, r),
		Name:      "Test",
		Desc:      "a peer",
		Addresses: []string{"tcp://1.2.3.4:9701", "sim://rennes/3"},
	}
	data, err := EncodeXML(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeXML(data)
	if err != nil {
		t.Fatal(err)
	}
	bp, ok := back.(*Peer)
	if !ok {
		t.Fatalf("decoded type %T", back)
	}
	if !bp.PeerID.Equal(p.PeerID) || bp.Name != p.Name || bp.Desc != p.Desc {
		t.Fatalf("fields changed: %+v vs %+v", bp, p)
	}
	if len(bp.Addresses) != 2 || bp.Addresses[1] != "sim://rennes/3" {
		t.Fatalf("addresses changed: %v", bp.Addresses)
	}
}

func TestRdvRoundTrip(t *testing.T) {
	r := rng()
	adv := &Rdv{
		PeerID:  ids.NewRandom(ids.KindPeer, r),
		GroupID: ids.FromName(ids.KindGroup, "NetPeerGroup"),
		Name:    "rdv-rennes-1",
		Address: "sim://rennes/1",
	}
	data, err := EncodeXML(adv)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeXML(data)
	if err != nil {
		t.Fatal(err)
	}
	b := back.(*Rdv)
	if !b.PeerID.Equal(adv.PeerID) || !b.GroupID.Equal(adv.GroupID) ||
		b.Name != adv.Name || b.Address != adv.Address {
		t.Fatalf("round trip changed: %+v vs %+v", b, adv)
	}
}

func TestResourceRoundTrip(t *testing.T) {
	adv := &Resource{
		ResID: ids.FromName(ids.KindAdv, "res"),
		Name:  "node42",
		Attrs: []IndexField{{Attr: "CPU", Value: "opteron-2.2"}, {Attr: "RAM", Value: "4096"}},
	}
	data, _ := EncodeXML(adv)
	back, err := DecodeXML(data)
	if err != nil {
		t.Fatal(err)
	}
	b := back.(*Resource)
	if b.Name != "node42" || len(b.Attrs) != 2 || b.Attrs[0] != adv.Attrs[0] || b.Attrs[1] != adv.Attrs[1] {
		t.Fatalf("round trip changed: %+v", b)
	}
}

func TestIndexFields(t *testing.T) {
	r := rng()
	peer := &Peer{PeerID: ids.NewRandom(ids.KindPeer, r), Name: "Test"}
	fields := AppendIndexFields(nil, peer)
	if len(fields) != 2 || fields[0].Attr != "Name" || fields[0].Value != "Test" {
		t.Fatalf("peer index fields: %v", fields)
	}
	res := &Resource{ResID: ids.NewRandom(ids.KindAdv, r), Name: "n",
		Attrs: []IndexField{{Attr: "Site", Value: "rennes"}}}
	rf := AppendIndexFields(nil, res)
	if len(rf) != 2 || rf[1].Attr != "Site" {
		t.Fatalf("resource index fields: %v", rf)
	}
}

// TestDecodeUnknownType: a root this package does not define is
// ErrUnknownType, the JXTA types no peer here writes (route, pipe and module
// advertisements) included.
func TestDecodeUnknownType(t *testing.T) {
	for _, xml := range []string{
		"<jxta:Mystery><A>x</A></jxta:Mystery>",
		"<jxta:RA></jxta:RA>",
		"<jxta:PipeAdvertisement><Name>n</Name></jxta:PipeAdvertisement>",
		"<jxta:MIA><Name>n</Name></jxta:MIA>",
	} {
		if _, err := DecodeXML([]byte(xml)); !errors.Is(err, ErrUnknownType) {
			t.Errorf("DecodeXML(%s) error %v, want ErrUnknownType", xml, err)
		}
	}
}

func TestDecodeMissingID(t *testing.T) {
	cases := []string{
		"<jxta:PA><Name>n</Name></jxta:PA>",
		"<jxta:RdvAdvertisement><Name>n</Name></jxta:RdvAdvertisement>",
		"<jxta:ResourceAdv><Name>n</Name></jxta:ResourceAdv>",
	}
	for _, xml := range cases {
		if _, err := DecodeXML([]byte(xml)); err == nil {
			t.Errorf("missing ID accepted: %s", xml)
		}
	}
}

func TestDecodeBadXML(t *testing.T) {
	if _, err := DecodeXML([]byte("<<<")); err == nil {
		t.Fatal("bad XML accepted")
	}
}

func TestRdvMissingGroup(t *testing.T) {
	xml := `<jxta:RdvAdvertisement><RdvPeerID>` +
		ids.FromName(ids.KindPeer, "p").String() +
		`</RdvPeerID></jxta:RdvAdvertisement>`
	if _, err := DecodeXML([]byte(xml)); err == nil {
		t.Fatal("missing group accepted")
	}
}

func TestTypeTags(t *testing.T) {
	r := rng()
	cases := []struct {
		adv     Advertisement
		typ     string
		docType string
	}{
		{&Peer{PeerID: ids.NewRandom(ids.KindPeer, r)}, "Peer", "jxta:PA"},
		{&Rdv{PeerID: ids.NewRandom(ids.KindPeer, r)}, "Rdv", "jxta:RdvAdvertisement"},
		{&Resource{ResID: ids.NewRandom(ids.KindAdv, r)}, "Resource", "jxta:ResourceAdv"},
	}
	for _, c := range cases {
		if c.adv.Type() != c.typ {
			t.Errorf("%T.Type() = %q, want %q", c.adv, c.adv.Type(), c.typ)
		}
		if c.adv.DocType() != c.docType {
			t.Errorf("%T.DocType() = %q, want %q", c.adv, c.adv.DocType(), c.docType)
		}
		if c.adv.Document().Name != c.docType {
			t.Errorf("%T document name mismatch", c.adv)
		}
	}
}

// Property: every generated Resource round-trips through XML.
func TestResourceRoundTripProperty(t *testing.T) {
	clean := func(s string) string {
		s = strings.Map(func(r rune) rune {
			if r < 0x20 || r > 0x7e {
				return 'x'
			}
			return r
		}, s)
		return strings.TrimSpace(s)
	}
	f := func(seed int64, name, a1, v1, a2, v2 string) bool {
		r := rand.New(rand.NewSource(seed))
		adv := &Resource{
			ResID: ids.NewRandom(ids.KindAdv, r),
			Name:  clean(name),
			Attrs: []IndexField{
				{Attr: "k" + clean(a1), Value: clean(v1)},
				{Attr: "k" + clean(a2), Value: clean(v2)},
			},
		}
		data, err := EncodeXML(adv)
		if err != nil {
			return false
		}
		back, err := DecodeXML(data)
		if err != nil {
			return false
		}
		b, ok := back.(*Resource)
		if !ok || b.Name != adv.Name || len(b.Attrs) != len(adv.Attrs) {
			return false
		}
		for i := range b.Attrs {
			if b.Attrs[i] != adv.Attrs[i] {
				return false
			}
		}
		return b.ResID.Equal(adv.ResID)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodePeer(b *testing.B) {
	p := &Peer{PeerID: ids.FromName(ids.KindPeer, "p"), Name: "Test",
		Addresses: []string{"tcp://1.2.3.4:9701"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeXML(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRdv(b *testing.B) {
	adv := &Rdv{PeerID: ids.FromName(ids.KindPeer, "p"),
		GroupID: ids.FromName(ids.KindGroup, "g"), Name: "r", Address: "sim://x/1"}
	data, _ := EncodeXML(adv)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeXML(data); err != nil {
			b.Fatal(err)
		}
	}
}
