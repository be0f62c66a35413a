package discovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/cm"
	"jxta/internal/document"
	"jxta/internal/ids"
	"jxta/internal/simnet"
	"jxta/internal/srdi"
	"jxta/internal/transport"
)

// The tree-building encoders the service used before its writers appended:
// the reference the writers are held to, byte for byte.

func marshalTree(doc *document.Element) []byte {
	data, err := doc.Marshal()
	if err != nil {
		return nil
	}
	return data
}

func encodeQueryTree(advType, attr, value, stage string) []byte {
	return marshalTree(document.NewElement("disco:Q").
		AppendText("Type", advType).
		AppendText("Attr", attr).
		AppendText("Value", value).
		AppendText("Stage", stage))
}

func encodeRangeQueryTree(advType, attr string, lo, hi int64, stage string) []byte {
	return marshalTree(document.NewElement("disco:Q").
		AppendText("Type", advType).
		AppendText("Attr", attr).
		AppendText("Stage", stage).
		AppendText("Lo", strconv.FormatInt(lo, 10)).
		AppendText("Hi", strconv.FormatInt(hi, 10)))
}

func encodeTupleTree(t srdi.Tuple) []byte {
	doc := document.NewElement("srdi:Tuple").
		AppendText("Key", t.Key).
		AppendText("Pub", t.Publisher.String()).
		AppendText("Addr", string(t.PublisherAddr)).
		AppendText("Life", strconv.FormatInt(int64(t.Lifetime), 10))
	if t.NumAttr != "" {
		doc.AppendText("NA", t.NumAttr)
		doc.AppendText("NV", strconv.FormatInt(t.NumValue, 10))
	}
	return marshalTree(doc)
}

func encodeResponseTree(advs []advertisement.Advertisement) []byte {
	doc := document.NewElement("disco:R")
	for _, adv := range advs {
		doc.Append(adv.Document())
	}
	return marshalTree(doc)
}

// codecService is a service with a cache and nothing else: enough for the
// response codec, which serves from and files into the cache.
func codecService() *Service {
	return &Service{cache: cm.NewWithStore(simnet.NewScheduler(1).NewEnv("codec"), advstore.New())}
}

// noRoute is the route table of a node that knows no publisher: a decoded
// tuple keeps a copy of its address.
func noRoute(ids.ID) (transport.Addr, bool) { return "", false }

// fieldValues are the values a codec must carry unharmed: plain ones, every
// byte the writer escapes, invalid UTF-8, nothing, a lot, and random bytes.
func fieldValues() []string {
	values := []string{
		"", "Test", "Peer", "a b", "\"'&<>", "tab\there", "line\nbreak", "cr\rhere", "crlf\r\n",
		"\x00\x01\x1f", "caf\xc3\xa9", "bad\xff\xfeutf8", "\xef\xbf\xbd", "]]>", "&amp;", "<!-- x -->",
		" lead", "trail ", "-42", "9223372036854775807", "range", "range-deliver", "deliver",
		strings.Repeat("x", 10<<10), strings.Repeat("<&>\r", 2<<10),
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		values = append(values, string(b))
	}
	for i := 0; i < 60; i++ { // printable ASCII: read without unescaping
		b := make([]byte, rng.Intn(24))
		const printable = "abcXYZ019 _-.:/>="
		for j := range b {
			b[j] = printable[rng.Intn(len(printable))]
		}
		values = append(values, string(b))
	}
	return values
}

func testTuples() []srdi.Tuple {
	var tuples []srdi.Tuple
	for i, v := range fieldValues() {
		tpl := srdi.Tuple{
			Key:           v,
			Publisher:     ids.FromName(ids.Kind(i%6+1), v),
			PublisherAddr: transport.Addr("sim://rennes/" + v),
			Lifetime:      time.Duration(i-3) * time.Hour,
		}
		if i%2 == 1 {
			tpl.NumAttr, tpl.NumValue = "Resource"+v, int64(i)*-7919
		}
		tuples = append(tuples, tpl)
	}
	return append(tuples, srdi.Tuple{Publisher: ids.Nil}, srdi.Tuple{NumAttr: "x", NumValue: -1 << 63})
}

func testAdvertisements() []advertisement.Advertisement {
	var advs []advertisement.Advertisement
	for i, v := range fieldValues() {
		switch i % 3 {
		case 0:
			advs = append(advs, &advertisement.Peer{PeerID: ids.FromName(ids.KindPeer, v), Name: v})
		case 1:
			advs = append(advs, &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, v), Name: v})
		default:
			advs = append(advs, &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, "r"+v), Name: v,
				Attrs: []advertisement.IndexField{{Attr: "RAM", Value: v}, {Attr: v, Value: "4096"}}})
		}
	}
	return advs
}

// TestWritersMatchTreeEncoders: equivalence (i). For plain and adversarial
// field values the appending writers produce exactly the tree's bytes.
func TestWritersMatchTreeEncoders(t *testing.T) {
	values := fieldValues()
	for i, v := range values {
		w := values[(i+1)%len(values)]
		for _, stage := range []string{stageInitial, stageReplica, stageDeliver, v} {
			if got, want := encodeQuery(v, w, v+w, stage), encodeQueryTree(v, w, v+w, stage); !bytes.Equal(got, want) {
				t.Fatalf("encodeQuery(%q, %q, stage %q):\n got  %q\n want %q", v, w, stage, got, want)
			}
		}
		lo, hi := int64(i)*-104729, int64(1)<<uint(i%63)
		for _, stage := range []string{stageRange, stageRangeDeliver, v} {
			if got, want := encodeRangeQuery(v, w, lo, hi, stage), encodeRangeQueryTree(v, w, lo, hi, stage); !bytes.Equal(got, want) {
				t.Fatalf("encodeRangeQuery(%q, %q, %d, %d):\n got  %q\n want %q", v, w, lo, hi, got, want)
			}
		}
	}
	if got, want := encodeRangeQuery("R", "A", -1<<63, 1<<63-1, stageRange), encodeRangeQueryTree("R", "A", -1<<63, 1<<63-1, stageRange); !bytes.Equal(got, want) {
		t.Fatalf("extreme bounds: got %q want %q", got, want)
	}
	for _, tpl := range testTuples() {
		want := encodeTupleTree(tpl)
		if got := appendTuple(nil, tpl); !bytes.Equal(got, want) {
			t.Fatalf("appendTuple(nil, %+v):\n got  %q\n want %q", tpl, got, want)
		}
		if got := appendTuple([]byte("scratch"), tpl); string(got) != "scratch"+string(want) {
			t.Fatalf("appendTuple(%+v) = %q", tpl, got)
		}
	}
	// The response wrapper, over advertisements the cache interned by value
	// (Intern: the encoding is made on first use) and off the wire
	// (InternBytes: the encoding was retained), singly and in a row.
	advs := testAdvertisements()
	byValue, offWire := codecService(), codecService()
	for _, adv := range advs {
		byValue.cache.Put(adv, 0, true)
		enc, err := advertisement.EncodeXML(adv)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := offWire.cache.PutEncoded(enc, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := range advs {
		for _, row := range [][]advertisement.Advertisement{advs[i : i+1], advs[i:min(i+3, len(advs))]} {
			want := encodeResponseTree(row)
			for name, s := range map[string]*Service{"by value": byValue, "off the wire": offWire} {
				if got := s.encodeResponse(row); !bytes.Equal(got, want) {
					t.Fatalf("encodeResponse (%s) of %d advertisements:\n got  %q\n want %q", name, len(row), got, want)
				}
			}
		}
	}
	if got, want := byValue.encodeResponse(nil), encodeResponseTree(nil); !bytes.Equal(got, want) {
		t.Fatalf("empty response: got %q want %q", got, want)
	}
}

// The tree decoders: the reference a reader is held to on every input it
// accepts.

func decodeQueryTree(data []byte) (queryBody, error) {
	doc, err := document.Unmarshal(data)
	if err != nil {
		return queryBody{}, err
	}
	b := queryBody{
		advType: doc.ChildText("Type"),
		attr:    doc.ChildText("Attr"),
		value:   []byte(doc.ChildText("Value")),
		stage:   doc.ChildText("Stage"),
	}
	if b.isRange() {
		if b.lo, err = strconv.ParseInt(doc.ChildText("Lo"), 10, 64); err != nil {
			return queryBody{}, err
		}
		if b.hi, err = strconv.ParseInt(doc.ChildText("Hi"), 10, 64); err != nil {
			return queryBody{}, err
		}
	}
	return b, nil
}

func decodeTupleTree(data []byte) (srdi.Tuple, error) {
	doc, err := document.Unmarshal(data)
	if err != nil {
		return srdi.Tuple{}, err
	}
	pub, err := ids.Parse(doc.ChildText("Pub"))
	if err != nil {
		return srdi.Tuple{}, err
	}
	life, err := strconv.ParseInt(doc.ChildText("Life"), 10, 64)
	if err != nil {
		return srdi.Tuple{}, err
	}
	tpl := srdi.Tuple{
		Key:           doc.ChildText("Key"),
		Publisher:     pub,
		PublisherAddr: transport.Addr(doc.ChildText("Addr")),
		Lifetime:      time.Duration(life),
	}
	if na := doc.ChildText("NA"); na != "" {
		nv, err := strconv.ParseInt(doc.ChildText("NV"), 10, 64)
		if err != nil {
			return srdi.Tuple{}, err
		}
		tpl.NumAttr = na
		tpl.NumValue = nv
	}
	return tpl, nil
}

// decodeResponseTree reads every child that advertisement.Decode reads and
// skips the others. Decode is DecodeXML of the child's encoding, so this
// reference checks a response's framing — which children it yields, in
// what order — while advertisement.FuzzDecodeXML holds the fields to the
// tree decoders DecodeXML replaced.
func decodeResponseTree(data []byte) ([]advertisement.Advertisement, error) {
	doc, err := document.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	var advs []advertisement.Advertisement
	for _, child := range doc.Children {
		if adv, err := advertisement.Decode(child); err == nil {
			advs = append(advs, adv)
		}
	}
	return advs, nil
}

// awkward is a value holding every byte class a writer escapes.
const awkward = "a&b <c> \"d\"\t\r'e'\n"

// TestStrictReadsEveryWriter: whatever a writer in this package or in
// advertisement emits, the strict reader accepts and reads back as written —
// attributes (a Resource's, as PublishResource writes it) and escaped values
// included.
func TestStrictReadsEveryWriter(t *testing.T) {
	strictForm := func(data []byte) {
		t.Helper()
		r := document.Strict{Rest: data}
		if r.Element(); !r.Done() {
			t.Fatalf("%q is not in the strict form", data)
		}
	}
	resource := &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, "node-7"), Name: "node-7",
		Attrs: []advertisement.IndexField{{Attr: "RAM", Value: "4096"}, {Attr: awkward, Value: awkward}}}
	for _, v := range []string{"Test", awkward} {
		q := appendQuery(nil, "Resource", v, v, stageInitial)
		strictForm(q)
		if b, err := decodeQuery(q); err != nil || b.attr != v || string(b.value) != v || b.stage != stageInitial {
			t.Fatalf("query %q read as %+v, %v", q, b, err)
		}
		rq := encodeRangeQuery("Resource", v, -3, 1<<40, stageRange)
		strictForm(rq)
		if b, err := decodeQuery(rq); err != nil || b.attr != v || b.lo != -3 || b.hi != 1<<40 {
			t.Fatalf("range query %q read as %+v, %v", rq, b, err)
		}
		tpl := srdi.Tuple{Key: v, Publisher: ids.FromName(ids.KindPeer, v), PublisherAddr: transport.Addr(v),
			Lifetime: time.Hour, NumAttr: v, NumValue: -7}
		data := appendTuple(nil, tpl)
		strictForm(data)
		if back, err := decodeTuple(data, noRoute); err != nil || back != tpl {
			t.Fatalf("tuple %q read as %+v, %v", data, back, err)
		}
		advs := []advertisement.Advertisement{
			&advertisement.Peer{PeerID: ids.FromName(ids.KindPeer, v), Name: v, Desc: v, Addresses: []string{v, v}},
			&advertisement.Rdv{PeerID: ids.FromName(ids.KindPeer, "rdv"+v), GroupID: ids.FromName(ids.KindGroup, v), Name: v, Address: v},
			resource,
		}
		pub, req := codecService(), codecService()
		for _, adv := range advs {
			enc, err := advertisement.AppendXML(nil, adv)
			if err != nil {
				t.Fatal(err)
			}
			strictForm(enc)
			if back, err := advertisement.DecodeXML(enc); err != nil || !reflect.DeepEqual(back, adv) {
				t.Fatalf("%T %q read as %+v, %v", adv, enc, back, err)
			}
			pub.cache.Put(adv, 0, true)
		}
		rsp := pub.encodeResponse(advs)
		strictForm(rsp)
		back, _ := req.cacheResponse(nil, rsp)
		if !reflect.DeepEqual(back, advs) || req.cache.Len() != len(advs) {
			t.Fatalf("response %q read as %v; %d cached", rsp, back, req.cache.Len())
		}
	}
}

// foreignForms returns data re-formatted the way another implementation
// might send it, damaged, and cut short: inputs no reader accepts.
func foreignForms(data []byte, root string) [][]byte {
	s := string(data)
	open, end := "<"+root+">", "</"+root+">"
	inner := strings.TrimSuffix(strings.TrimPrefix(s, open), end)
	forms := []string{
		"<" + root + ` xmlns:x="urn:x" v="1">` + inner + end,                   // attributes on the root
		open + "\n  " + strings.ReplaceAll(inner, "><", ">\n  <") + "\n" + end, // whitespace between children
		open + "<!-- note -->" + inner + "<!-- end -->" + end,                  // comments
		`<?xml version="1.0"?>` + s,                                            // prolog
		" " + s,                                                                // leading space
		s + "trailing", s + " ", s + s,                                         // bytes after the root
		open + inner + "<Extra/>" + end,                    // an empty-element tag
		strings.Replace(s, "</", "&bogus;</", 1),           // unknown entity
		strings.Replace(s, "</", "&amp</", 1),              // unterminated reference
		strings.Replace(s, "</", "\r\n</", 1),              // CR LF to normalise
		strings.Replace(s, "</", "<![CDATA[<raw>]]></", 1), // CDATA
		strings.Replace(s, ">", " >", 1),                   // space in the root tag
		strings.Replace(s, end, "</"+root+" >", 1),         // space in the end tag
		strings.Replace(s, end, "</other>", 1),             // wrong end tag
		"<other>" + inner + "</other>",                     // another root name
		open + "text" + end, "", "<", "garbage",
	}
	out := make([][]byte, 0, len(forms)+len(data))
	for _, f := range forms {
		out = append(out, []byte(f))
	}
	step := 1
	if len(data) > 400 {
		step = len(data) / 200 // long values: sample the cut points
	}
	for cut := 0; cut < len(data); cut += step {
		out = append(out, data[:cut])
	}
	return out
}

// reshapedForms returns data with its children out of the writer's shape:
// no query or tuple reads them, and a response reads them only where they
// are whole advertisements.
func reshapedForms(data []byte, root string) [][]byte {
	s := string(data)
	open, end := "<"+root+">", "</"+root+">"
	inner := strings.TrimSuffix(strings.TrimPrefix(s, open), end)
	firstChild := inner
	if i := strings.Index(inner, "</"); i >= 0 {
		if j := strings.Index(inner[i:], ">"); j >= 0 {
			firstChild = inner[:i+j+1]
		}
	}
	var out [][]byte
	for _, f := range []string{
		open + firstChild + inner + end,           // duplicated first child
		open + inner + firstChild + end,           // duplicated, last
		open + "<Wrap>" + inner + "</Wrap>" + end, // nested children
		open + "<Extra>1</Extra>" + inner + end,   // an unknown child
		open + end,                                // no children
	} {
		out = append(out, []byte(f))
	}
	return out
}

// escapedForms returns data with a reference in its first text: the strict
// form, which a reader takes, read as the tree reads it.
func escapedForms(data []byte) [][]byte {
	s := string(data)
	return [][]byte{
		[]byte(strings.Replace(s, "</", "&#x41;</", 1)),
		[]byte(strings.Replace(s, "</", "&amp;&lt;&quot;&#65;</", 1)),
	}
}

// verdict says what a reader must do with an input: take it, refuse it, or
// either — and whatever it takes, read as the tree does.
type verdict int

const (
	either verdict = iota
	takes
	refuses
)

// TestReadersMatchTreeDecoders: equivalence (ii). A reader takes its
// writers' output and whatever it takes it reads as the tree decoder does,
// value for value; foreign-formatted, damaged and truncated input is an
// error, and a refused response leaves the cache untouched.
func TestReadersMatchTreeDecoders(t *testing.T) {
	took, refused := 0, 0
	tally := func(data []byte, err error, v verdict) bool {
		t.Helper()
		if (err == nil && v == refuses) || (err != nil && v == takes) {
			t.Fatalf("%q: error %v, want verdict %d", data, err, v)
		}
		if err != nil {
			refused++
			return false
		}
		took++
		return true
	}
	checkQuery := func(data []byte, v verdict) {
		t.Helper()
		got, err := decodeQuery(data)
		if !tally(data, err, v) {
			return
		}
		if want, err := decodeQueryTree(data); err != nil || !sameQuery(got, want) {
			t.Fatalf("decodeQuery(%q)\n got  %+v\n tree %+v, %v", data, got, want, err)
		}
	}
	values := fieldValues()
	for i, v := range values {
		w := values[(i+7)%len(values)]
		q := encodeQuery(v, w, w+v, stageInitial)
		checkQuery(q, takes)
		checkQuery(encodeQuery(v, w, w, v), either) // any stage, a range stage included
		rq := encodeRangeQuery(v, w, int64(i)-5, int64(i)*3, stageRange)
		checkQuery(rq, takes)
		checkQuery(encodeRangeQuery(v, w, 1, 2, v), either)
		if len(v) > 100 && i%2 == 0 {
			continue // one long value's foreign forms are enough
		}
		for _, data := range [][]byte{q, rq} {
			for _, f := range foreignForms(data, queryTag) {
				checkQuery(f, refuses)
			}
			for _, f := range reshapedForms(data, queryTag) {
				checkQuery(f, refuses)
			}
			for _, f := range escapedForms(data) {
				checkQuery(f, takes)
			}
		}
	}
	// Shapes in the strict form that a query does not take: bounds that do
	// not parse, a stage that contradicts the shape, children missing or
	// out of order.
	for _, s := range []string{
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>range</Stage><Lo>x</Lo><Hi>2</Hi></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>range</Stage><Lo>1</Lo><Hi>99999999999999999999</Hi></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>range</Stage><Lo>+1</Lo><Hi> 2</Hi></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>initial</Stage><Lo>1</Lo><Hi>2</Hi></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Value>v</Value><Stage>range</Stage></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>range</Stage></disco:Q>",
		"<disco:Q><Attr>A</Attr><Type>R</Type><Value>v</Value><Stage>initial</Stage></disco:Q>",
	} {
		checkQuery([]byte(s), refuses)
	}

	checkTuple := func(data []byte, v verdict) {
		t.Helper()
		got, err := decodeTuple(data, noRoute)
		if !tally(data, err, v) {
			return
		}
		if want, err := decodeTupleTree(data); err != nil || got != want {
			t.Fatalf("decodeTuple(%q)\n got  %+v\n tree %+v, %v", data, got, want, err)
		}
	}
	for i, tpl := range testTuples() {
		data := appendTuple(nil, tpl)
		checkTuple(data, takes)
		if len(tpl.Key) > 100 && i%2 == 0 {
			continue
		}
		for _, f := range foreignForms(data, tupleTag) {
			checkTuple(f, refuses)
		}
		for _, f := range reshapedForms(data, tupleTag) {
			checkTuple(f, refuses)
		}
		for _, f := range escapedForms(data) {
			checkTuple(f, takes)
		}
	}
	pub := ids.FromName(ids.KindPeer, "p").String()
	for _, s := range []string{
		"<srdi:Tuple><Key>k</Key><Pub>junk</Pub><Addr>a</Addr><Life>1</Life></srdi:Tuple>",
		"<srdi:Tuple><Key>k</Key><Pub>" + pub + "</Pub><Addr>a</Addr><Life>soon</Life></srdi:Tuple>",
		"<srdi:Tuple><Key>k</Key><Pub>" + pub + "</Pub><Addr>a</Addr><Life>1</Life><NA>n</NA><NV>x</NV></srdi:Tuple>",
		"<srdi:Tuple><Key>k</Key><Pub>" + pub + "</Pub><Addr>a</Addr><Life>1</Life><NA></NA><NV>x</NV></srdi:Tuple>",
		"<srdi:Tuple><Key>k</Key><Pub>" + pub + "</Pub><Addr>a</Addr><Life>1</Life><NA>n</NA></srdi:Tuple>",
		"<srdi:Tuple><Pub>" + pub + "</Pub><Key>k</Key><Addr>a</Addr><Life>1</Life></srdi:Tuple>",
		"<srdi:Tuple><Key>k</Key><Pub>" + pub + "</Pub><Life>1</Life></srdi:Tuple>",
	} {
		checkTuple([]byte(s), refuses)
	}

	// A response yields nil both when it is refused and when it holds no
	// advertisement the node reads; either way the cache is untouched.
	checkResponse := func(data []byte, v verdict) {
		t.Helper()
		s := codecService()
		got, _ := s.cacheResponse(nil, data)
		if got == nil && v != takes {
			if s.cache.Len() != 0 {
				t.Fatalf("refused response %q left %d advertisements in the cache", data, s.cache.Len())
			}
			refused++
			return
		}
		if v == refuses {
			t.Fatalf("cacheResponse took %q", data)
		}
		took++
		want, err := decodeResponseTree(data)
		if err != nil {
			t.Fatalf("cacheResponse took %q, the tree refuses it: %v", data, err)
		}
		if err := sameAdvertisements(got, want, s.cache); err != nil {
			t.Fatalf("cacheResponse(%q): %v", data, err)
		}
	}
	advs := testAdvertisements()
	for i := range advs {
		row := advs[i:min(i+1+i%3, len(advs))]
		data := encodeResponseTree(row)
		checkResponse(data, takes)
		if len(data) > 400 && i%4 != 0 {
			continue
		}
		for _, f := range foreignForms(data, responseTag) {
			checkResponse(f, refuses)
		}
		for _, f := range reshapedForms(data, responseTag) {
			checkResponse(f, either)
		}
		for _, f := range escapedForms(data) {
			checkResponse(f, takes)
		}
	}
	for _, s := range []string{
		"<disco:R><jxta:Mystery><X>1</X></jxta:Mystery></disco:R>",
		"<disco:R><jxta:PA><PID>junk</PID><Name>n</Name></jxta:PA><jxta:PA><PID>" + pub + "</PID><Name>n</Name></jxta:PA></disco:R>",
		"<disco:R><jxta:PA><PID>" + pub + "</PID><Name>n</Name><Name>m</Name><jxta:PA><PID>x</PID></jxta:PA></jxta:PA></disco:R>",
	} {
		checkResponse([]byte(s), takes)
	}
	if took < 500 || refused < 1000 {
		t.Fatalf("readers took %d inputs and refused %d: one side is barely exercised", took, refused)
	}
}

// sameQuery reports whether two decoded queries say the same thing; value
// is compared by content, since one may be a view and the other a copy.
func sameQuery(a, b queryBody) bool {
	return a.advType == b.advType && a.attr == b.attr && a.stage == b.stage &&
		bytes.Equal(a.value, b.value) && a.lo == b.lo && a.hi == b.hi
}

// sameAdvertisements reports how got differs from want — same count, same
// order, equal encodings — or that one of them is missing from cache.
func sameAdvertisements(got, want []advertisement.Advertisement, cache *cm.Cache) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d advertisements, the tree decoder finds %d", len(got), len(want))
	}
	for i := range got {
		g, err := advertisement.EncodeXML(got[i])
		if err != nil {
			return err
		}
		w, err := advertisement.EncodeXML(want[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(g, w) {
			return fmt.Errorf("advertisement %d is %q, the tree decoder's is %q", i, g, w)
		}
		if cache.Encoded(got[i].ID()) == nil {
			return fmt.Errorf("advertisement %d (%s) was not cached", i, got[i].ID().Short())
		}
	}
	return nil
}
