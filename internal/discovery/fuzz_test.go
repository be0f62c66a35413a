package discovery

import (
	"bytes"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/ids"
	"jxta/internal/srdi"
	"jxta/internal/transport"
)

// The three decoders read bytes that came off a socket. For any input each
// must not panic, must return what the tree decoder returns (value and
// error), and must keep no reference to the input: what it decoded is
// compared again after the input has been overwritten.

func overwrite(data []byte) {
	for i := range data {
		data[i] ^= 0xff
	}
}

func FuzzDecodeQuery(f *testing.F) {
	seeds := [][]byte{
		encodeQuery("Peer", "Name", "Test", stageInitial),
		encodeQuery("Resource", "Name", "a&b <c>", stageDeliver),
		encodeRangeQuery("Resource", "RAM", -5, 1<<40, stageRange),
		encodeRangeQuery("Resource", "RAM", 1, 2, stageInitial),
		[]byte("<disco:Q><Type>R</Type><Attr>A</Attr><Stage>range</Stage><Lo>x</Lo><Hi>2</Hi></disco:Q>"),
		[]byte("<disco:Q v=\"1\">\n <Type>R</Type>\n <Stage>initial</Stage>\n</disco:Q>trailing"),
		[]byte("<disco:Q><Type>a</Type><Type>b</Type><![CDATA[x]]></disco:Q>"),
		[]byte("<unterminated"), nil,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := decodeQuery(data)
		want, wantErr := decodeQueryTree(data)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("decodeQuery(%q)\n got  %+v, %v\n want %+v, %v", data, got, gotErr, want, wantErr)
		}
		overwrite(data)
		if got != want {
			t.Fatalf("decoded query changed to %+v when the input was overwritten", got)
		}
	})
}

func FuzzDecodeTuple(f *testing.F) {
	tpl := srdi.Tuple{Key: "PeerNameTest", Publisher: ids.FromName(ids.KindPeer, "p"),
		PublisherAddr: transport.Addr("sim://rennes/p"), Lifetime: 2 * time.Hour}
	num := tpl
	num.NumAttr, num.NumValue = "ResourceRAM", -4096
	esc := tpl
	esc.Key = "a&b\r\n<c>"
	seeds := [][]byte{
		encodeTuple(tpl), encodeTuple(num), encodeTuple(esc),
		[]byte("<srdi:Tuple><Key>k</Key><Pub>junk</Pub><Addr>a</Addr><Life>1</Life></srdi:Tuple>"),
		[]byte("<srdi:Tuple><Key>k</Key><Pub>urn:jxta:nil</Pub><Addr>a</Addr><Life>1</Life><NA></NA><NV>x</NV></srdi:Tuple>"),
		[]byte("<srdi:Tuple>\n<Pub>urn:jxta:nil</Pub><Life>7</Life><Key>k</Key></srdi:Tuple>"),
		[]byte("<srdi:Tuple"), nil,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := decodeTuple(data)
		want, wantErr := decodeTupleTree(data)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("decodeTuple(%q)\n got  %+v, %v\n want %+v, %v", data, got, gotErr, want, wantErr)
		}
		overwrite(data)
		if got != want {
			t.Fatalf("decoded tuple changed to %+v when the input was overwritten", got)
		}
	})
}

func FuzzCacheResponse(f *testing.F) {
	advs := []advertisement.Advertisement{
		&advertisement.Peer{PeerID: ids.FromName(ids.KindPeer, "a"), Name: "A"},
		&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, "b"), Name: "B",
			Attrs: []advertisement.IndexField{{Attr: "RAM", Value: "4096"}}},
		&advertisement.Resource{ResID: ids.FromName(ids.KindAdv, "c"), Name: "a&b"},
	}
	seeds := [][]byte{
		encodeResponseTree(advs[:1]), encodeResponseTree(advs[:2]), encodeResponseTree(advs), encodeResponseTree(nil),
		[]byte("<disco:R><jxta:Mystery><X>1</X></jxta:Mystery><jxta:PA><PID>junk</PID></jxta:PA></disco:R>"),
		[]byte("<disco:R>\n<jxta:PA><PID>urn:jxta:nil</PID><Name>n</Name></jxta:PA>\n</disco:R>"),
		[]byte("<disco:R><jxta:PA><PID>urn:jxta:nil</PID><jxta:PA></jxta:PA></jxta:PA></disco:R>x"),
		[]byte("<disco:R><a>text<b/></a></disco:R>"), []byte("<disco:R"), nil,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := codecService()
		// Half the time the store already holds the advertisements, as the
		// overlay's store holds a publisher's: the recognise-from-bytes path.
		if len(data)%2 == 0 {
			for _, adv := range advs {
				s.cache.Put(adv, 0, true)
			}
		}
		got := s.cacheResponse(data)
		want := decodeResponseTree(data)
		if err := sameAdvertisements(got, want, s.cache); err != nil {
			t.Fatalf("cacheResponse(%q): %v", data, err)
		}
		var before [][]byte
		for _, adv := range got {
			enc, _ := advertisement.EncodeXML(adv)
			before = append(before, enc)
		}
		overwrite(data)
		for i, adv := range got {
			if enc, _ := advertisement.EncodeXML(adv); !bytes.Equal(enc, before[i]) {
				t.Fatalf("advertisement %d changed from %q to %q when the input was overwritten", i, before[i], enc)
			}
			if cached := s.cache.Encoded(adv.ID()); !bytes.Equal(cached, before[i]) {
				t.Fatalf("cached encoding %d changed to %q when the input was overwritten", i, cached)
			}
		}
	})
}

// TestDecodeAllocs gates the strict readers on canonical input: a query made
// of protocol vocabulary decodes without allocating, any other costs the
// strings it returns and nothing else; a tuple costs its key and its address
// (and, numeric, its attribute). The tree decoders cost 4 to 11.
func TestDecodeAllocs(t *testing.T) {
	pub := ids.FromName(ids.KindPeer, "p")
	tpl := srdi.Tuple{Key: "ResourceNamenode-17", Publisher: pub, PublisherAddr: "sim://rennes/p", Lifetime: time.Hour}
	num := tpl
	num.NumAttr, num.NumValue = "ResourceRAM", 4096
	for _, c := range []struct {
		name   string
		decode func(data []byte) error
		data   []byte
		want   float64
	}{
		{"query, vocabulary only", queryErr, encodeQuery("Peer", "Name", "Test", stageInitial), 0},
		{"query, a value of its own", queryErr, encodeQuery("Resource", "Name", "node-17", stageDeliver), 1},
		{"range query", queryErr, encodeRangeQuery("Resource", "RAM", -1<<62, 1<<62, stageRange), 1},
		{"tuple", tupleErr, encodeTuple(tpl), 2},
		{"numeric tuple", tupleErr, encodeTuple(num), 3},
	} {
		if err := c.decode(c.data); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testing.AllocsPerRun(200, func() { _ = c.decode(c.data) }); got != c.want {
			t.Errorf("%s: decoding costs %.0f allocations, want %.0f", c.name, got, c.want)
		}
	}
}

func queryErr(data []byte) error { _, err := decodeQuery(data); return err }
func tupleErr(data []byte) error { _, err := decodeTuple(data); return err }
