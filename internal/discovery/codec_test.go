package discovery

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/ids"
	"jxta/internal/srdi"
	"jxta/internal/transport"
)

func TestQueryCodecRoundTrip(t *testing.T) {
	data := encodeQuery("Peer", "Name", "Test", stageInitial)
	body, err := decodeQuery(data)
	if err != nil {
		t.Fatal(err)
	}
	if body.advType != "Peer" || body.attr != "Name" || string(body.value) != "Test" ||
		body.stage != stageInitial || body.isRange() {
		t.Fatalf("round trip changed query: %+v", body)
	}
}

func TestRangeQueryCodecRoundTrip(t *testing.T) {
	data := encodeRangeQuery("Resource", "RAM", -5, 1<<40, stageRange)
	body, err := decodeQuery(data)
	if err != nil {
		t.Fatal(err)
	}
	if !body.isRange() || body.lo != -5 || body.hi != 1<<40 ||
		body.advType != "Resource" || body.attr != "RAM" {
		t.Fatalf("range round trip changed query: %+v", body)
	}
}

func TestDecodeQueryErrors(t *testing.T) {
	if _, err := decodeQuery([]byte("<not-xml")); err == nil {
		t.Fatal("bad XML accepted")
	}
	// A range-stage query with missing bounds must fail.
	bad := []byte(`<disco:Q><Type>R</Type><Attr>RAM</Attr><Stage>range</Stage></disco:Q>`)
	if _, err := decodeQuery(bad); err == nil {
		t.Fatal("range query without bounds accepted")
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	tpl := srdi.Tuple{
		Key:           "PeerNameTest",
		Publisher:     ids.FromName(ids.KindPeer, "p"),
		PublisherAddr: transport.Addr("sim://rennes/p"),
		Lifetime:      2 * time.Hour,
	}
	back, err := decodeTuple(encodeTuple(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if back != tpl {
		t.Fatalf("round trip changed tuple: %+v vs %+v", back, tpl)
	}
}

func TestTupleCodecNumericRoundTrip(t *testing.T) {
	tpl := srdi.Tuple{
		Key:           "ResourceRAM4096",
		Publisher:     ids.FromName(ids.KindPeer, "p"),
		PublisherAddr: transport.Addr("sim://lyon/p"),
		Lifetime:      time.Hour,
		NumAttr:       "ResourceRAM",
		NumValue:      4096,
	}
	back, err := decodeTuple(encodeTuple(tpl))
	if err != nil {
		t.Fatal(err)
	}
	if back != tpl {
		t.Fatalf("numeric round trip changed tuple: %+v vs %+v", back, tpl)
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	bad := []string{
		"<garbage",
		"<srdi:Tuple><Key>k</Key></srdi:Tuple>", // no publisher
		"<srdi:Tuple><Key>k</Key><Pub>junk</Pub></srdi:Tuple>",         // bad publisher
		"<srdi:Tuple><Key>k</Key><Pub>urn:jxta:nil</Pub></srdi:Tuple>", // no lifetime
	}
	for _, x := range bad {
		if _, err := decodeTuple([]byte(x)); err == nil {
			t.Errorf("decodeTuple(%q) succeeded", x)
		}
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	advs := []advertisement.Advertisement{
		&advertisement.Peer{PeerID: ids.FromName(ids.KindPeer, "a"), Name: "A"},
		&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, "b"), Name: "B"},
	}
	pub, req := codecService(), codecService()
	for _, adv := range advs {
		pub.cache.Put(adv, 0, true)
	}
	back := req.cacheResponse(pub.encodeResponse(advs))
	if len(back) != 2 {
		t.Fatalf("decoded %d advs", len(back))
	}
	if back[0].(*advertisement.Peer).Name != "A" ||
		back[1].(*advertisement.Resource).Name != "B" {
		t.Fatal("response round trip changed advertisements")
	}
	if req.cache.Len() != 2 {
		t.Fatalf("requester cached %d advertisements, want 2", req.cache.Len())
	}
}

func TestDecodeResponseSkipsUnknownChildren(t *testing.T) {
	xml := `<disco:R><jxta:Mystery><X>1</X></jxta:Mystery><jxta:PA><PID>` +
		ids.FromName(ids.KindPeer, "p").String() +
		`</PID><Name>ok</Name></jxta:PA></disco:R>`
	back := codecService().cacheResponse([]byte(xml))
	if len(back) != 1 || back[0].(*advertisement.Peer).Name != "ok" {
		t.Fatalf("partial decode wrong: %v", back)
	}
	if codecService().cacheResponse([]byte("<bad")) != nil {
		t.Fatal("garbage response decoded")
	}
}

// Property: the query codec round-trips arbitrary printable strings.
func TestQueryCodecProperty(t *testing.T) {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r < 0x20 || r > 0x7e {
				return 'x'
			}
			return r
		}, strings.TrimSpace(s))
	}
	f := func(typ, attr, val string) bool {
		typ, attr, val = clean(typ), clean(attr), clean(val)
		body, err := decodeQuery(encodeQuery(typ, attr, val, stageInitial))
		return err == nil && body.advType == typ && body.attr == attr && string(body.value) == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: range bounds of any sign and magnitude survive the codec.
func TestRangeCodecProperty(t *testing.T) {
	f := func(lo, hi int64) bool {
		body, err := decodeQuery(encodeRangeQuery("Resource", "X", lo, hi, stageRange))
		return err == nil && body.lo == lo && body.hi == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
