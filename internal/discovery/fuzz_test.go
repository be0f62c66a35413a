package discovery

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"jxta/internal/advertisement"
	"jxta/internal/document"
	"jxta/internal/ids"
	"jxta/internal/israce"
	"jxta/internal/srdi"
	"jxta/internal/transport"
)

// The three readers take bytes that came off a socket. For any input each
// must not panic; whatever it takes, the tree decoder must take too and read
// the same; a response that yields nothing must leave the cache as it was;
// and a reader must keep no reference to the input that it does not
// declare: what it read is compared again after the input has been
// overwritten. The one declared reference is a query's value, a view of the
// input unless it held a reference to unescape. A response's reference,
// decodeResponseTree, reads each advertisement with advertisement.Decode,
// which is DecodeXML again: here it checks which advertisements a response
// yields and in what order, and advertisement.FuzzDecodeXML holds their
// fields to the tree decoders.

func overwrite(data []byte) {
	for i := range data {
		data[i] ^= 0xff
	}
}

// aliases reports whether b is a view of data.
func aliases(data, b []byte) bool {
	if len(b) == 0 || len(data) == 0 {
		return false
	}
	p, start := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	return p >= start && p < start+uintptr(len(data))
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
		got, err := decodeQuery(data)
		if err != nil {
			return
		}
		want, err := decodeQueryTree(data)
		if err != nil || !sameQuery(got, want) {
			t.Fatalf("decodeQuery(%q)\n got  %+v\n tree %+v, %v", data, got, want, err)
		}
		// The loan: the strings are the body's own and keep their values;
		// value is a view of the input, or a copy of its own when unescaped.
		view := aliases(data, got.value)
		value := bytes.Clone(got.value)
		overwrite(data)
		if view {
			overwrite(value) // a view sees the input change
		}
		if got.advType != want.advType || got.attr != want.attr || got.stage != want.stage || got.lo != want.lo || got.hi != want.hi {
			t.Fatalf("decoded query changed to %+v when the input was overwritten", got)
		}
		if !bytes.Equal(got.value, value) {
			t.Fatalf("value %q after the input was overwritten, want %q (a view: %v)", got.value, value, view)
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
		appendTuple(nil, tpl), appendTuple(nil, num), appendTuple(nil, esc),
		[]byte("<srdi:Tuple><Key>k</Key><Pub>junk</Pub><Addr>a</Addr><Life>1</Life></srdi:Tuple>"),
		[]byte("<srdi:Tuple><Key>k</Key><Pub>urn:jxta:nil</Pub><Addr>a</Addr><Life>1</Life><NA></NA><NV>x</NV></srdi:Tuple>"),
		[]byte("<srdi:Tuple>\n<Pub>urn:jxta:nil</Pub><Life>7</Life><Key>k</Key></srdi:Tuple>"),
		[]byte("<srdi:Tuple"), nil,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeTuple(data, noRoute)
		if err != nil {
			return
		}
		want, err := decodeTupleTree(data)
		if err != nil || got != want {
			t.Fatalf("decodeTuple(%q)\n got  %+v\n tree %+v, %v", data, got, want, err)
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
		held := s.cache.Len()
		got, ok := s.cacheResponse(nil, data)
		if !ok {
			if s.cache.Len() != held {
				t.Fatalf("refused response %q changed the cache from %d to %d advertisements", data, held, s.cache.Len())
			}
			return
		}
		want, err := decodeResponseTree(data)
		if err != nil {
			t.Fatalf("cacheResponse took %q, the tree refuses it: %v", data, err)
		}
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

// TestDecodeAllocs gates the readers on their writers' output: a query
// whose type and attribute are protocol vocabulary decodes without
// allocating, whatever its value, which is a view of the input (it cost its
// string until the value was lent); an escaped value costs the one slice it
// is unescaped into; an attribute of its own costs that string; a tuple
// costs its key and its address (and, numeric, its attribute), and only its
// key when the node's route to the publisher holds the same address, which
// the tuple then shares (every tuple an edge pushes itself). A response
// whose advertisement the store holds — here a Resource with two attributes,
// as PublishResource writes it — builds no tree, decodes nothing and costs
// nothing: its advertisements are appended to the caller's list, which a
// lookup keeps in its hop state (it cost a slice of its own per response
// until Result.Advs was lent). The tree decoders cost 4 to 13.
func TestDecodeAllocs(t *testing.T) {
	if israce.Enabled {
		// The escaped value's slices.Grow is append(s, make([]byte, n)...),
		// which the compiler grows in one step only when it does not
		// instrument: under -race the make is a second allocation.
		t.Skip("under the race detector slices.Grow allocates its make([]byte, n) as well as the grown slice")
	}
	pub := ids.FromName(ids.KindPeer, "p")
	tpl := srdi.Tuple{Key: "ResourceNamenode-17", Publisher: pub, PublisherAddr: "sim://rennes/p", Lifetime: time.Hour}
	num := tpl
	num.NumAttr, num.NumValue = "ResourceRAM", 4096
	resource := &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, "node-17"), Name: "node-17",
		Attrs: []advertisement.IndexField{{Attr: "CPU", Value: "opteron"}, {Attr: "RAM", Value: "4096"}}}
	held := func(id ids.ID) (transport.Addr, bool) { return "sim://rennes/p", id == pub }
	svc := codecService()
	svc.cache.Put(resource, 0, true)
	var advs []advertisement.Advertisement
	response := func(data []byte) error {
		var ok bool
		if advs, ok = svc.cacheResponse(advs[:0], data); !ok {
			return document.ErrMalformed
		}
		return nil
	}
	for _, c := range []struct {
		name   string
		decode func(data []byte) error
		data   []byte
		want   float64
	}{
		{"query, vocabulary only", queryErr, encodeQuery("Peer", "Name", "Test", stageInitial), 0},
		{"query, a value of its own", queryErr, encodeQuery("Resource", "Name", "node-17", stageDeliver), 0},
		{"query, an escaped value", queryErr, encodeQuery("Resource", "Name", "a&b", stageDeliver), 1},
		{"range query", queryErr, encodeRangeQuery("Resource", "RAM", -1<<62, 1<<62, stageRange), 1},
		{"tuple", tupleErr, appendTuple(nil, tpl), 2},
		{"tuple, its publisher's route held", func(data []byte) error { _, err := decodeTuple(data, held); return err }, appendTuple(nil, tpl), 1},
		{"numeric tuple", tupleErr, appendTuple(nil, num), 3},
		{"response, a Resource with attributes", response, svc.encodeResponse([]advertisement.Advertisement{resource}), 0},
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
func tupleErr(data []byte) error { _, err := decodeTuple(data, noRoute); return err }
