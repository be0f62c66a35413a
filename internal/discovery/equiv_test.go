package discovery

import (
	"bytes"
	"fmt"
	"math/rand"
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
	for i := 0; i < 60; i++ { // printable: these stay on the strict path
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
		if got := encodeTuple(tpl); !bytes.Equal(got, want) {
			t.Fatalf("encodeTuple(%+v):\n got  %q\n want %q", tpl, got, want)
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

// foreignForms returns data re-formatted the way another implementation
// might send it, damaged, and cut short: inputs the strict readers must not
// answer themselves.
func foreignForms(data []byte, root string) [][]byte {
	s := string(data)
	open, end := "<"+root+">", "</"+root+">"
	inner := strings.TrimSuffix(strings.TrimPrefix(s, open), end)
	firstChild := inner
	if i := strings.Index(inner, "</"); i >= 0 {
		if j := strings.Index(inner[i:], ">"); j >= 0 {
			firstChild = inner[:i+j+1]
		}
	}
	forms := []string{
		"<" + root + ` xmlns:x="urn:x" v="1">` + inner + end,                   // attributes on the root
		open + "\n  " + strings.ReplaceAll(inner, "><", ">\n  <") + "\n" + end, // whitespace between children
		open + "<!-- note -->" + inner + "<!-- end -->" + end,                  // comments
		`<?xml version="1.0"?>` + s,                                            // prolog
		" " + s,                                                                // leading space
		s + "trailing", s + " ", s + s,                                         // bytes after the root
		open + firstChild + inner + end,                    // duplicated first child
		open + inner + firstChild + end,                    // duplicated, last
		open + "<Wrap>" + inner + "</Wrap>" + end,          // nested children
		open + "<Extra>1</Extra>" + inner + end,            // an unknown child
		open + inner + "<Extra/>" + end,                    // an empty-element tag
		strings.Replace(s, "</", "&#x41;</", 1),            // character reference
		strings.Replace(s, "</", "&amp;</", 1),             // entity reference
		strings.Replace(s, "</", "&bogus;</", 1),           // unknown entity: an error
		strings.Replace(s, "</", "\r\n</", 1),              // CR LF to normalise
		strings.Replace(s, "</", "<![CDATA[<raw>]]></", 1), // CDATA
		strings.Replace(s, ">", " >", 1),                   // space in the root tag
		strings.Replace(s, end, "</"+root+" >", 1),         // space in the end tag
		strings.Replace(s, end, "</other>", 1),             // wrong end tag
		"<other>" + inner + "</other>",                     // another root name
		open + end, open + "text" + end, "", "<", "garbage",
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

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestReadersMatchTreeDecoders: equivalence (ii). On canonical input and on
// foreign-formatted, damaged and truncated input the decoders return what
// the tree decoders return, error for error; canonical input without
// escapes is answered by the strict scan, everything foreign by the
// fallback — which is the tree decoder itself.
func TestReadersMatchTreeDecoders(t *testing.T) {
	strict, fallback := 0, 0
	checkQuery := func(data []byte, wantStrict, wantFallback bool) {
		t.Helper()
		got, gotErr := decodeQuery(data)
		want, wantErr := decodeQueryTree(data)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("decodeQuery(%q)\n got  %+v, %v\n want %+v, %v", data, got, gotErr, want, wantErr)
		}
		_, ok := scanQuery(data)
		if (ok && wantFallback) || (!ok && wantStrict) {
			t.Fatalf("scanQuery(%q) answered=%v", data, ok)
		}
		if ok {
			strict++
		} else {
			fallback++
		}
	}
	plain := func(vals ...string) bool { // no byte the writer escapes
		for _, v := range vals {
			var buf []byte
			if string(document.AppendTextElement(buf, "x", v)) != "<x>"+v+"</x>" {
				return false
			}
		}
		return true
	}
	values := fieldValues()
	for i, v := range values {
		w := values[(i+7)%len(values)]
		isPlain := plain(v, w)
		q := encodeQuery(v, w, w+v, stageInitial)
		checkQuery(q, isPlain, false)
		checkQuery(encodeQuery(v, w, w, v), false, false) // any stage, a range stage included
		rq := encodeRangeQuery(v, w, int64(i)-5, int64(i)*3, stageRange)
		checkQuery(rq, isPlain, false)
		checkQuery(encodeRangeQuery(v, w, 1, 2, v), false, false)
		if len(v) > 100 && i%2 == 0 {
			continue // one long value's foreign forms are enough
		}
		for _, f := range foreignForms(q, "disco:Q") {
			checkQuery(f, false, true)
		}
		for _, f := range foreignForms(rq, "disco:Q") {
			checkQuery(f, false, true)
		}
	}
	// Shapes that are canonical but mean something only the tree decoder
	// should say: bounds that do not parse, a stage that contradicts the shape.
	for _, s := range []string{
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>range</Stage><Lo>x</Lo><Hi>2</Hi></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>range</Stage><Lo>1</Lo><Hi>99999999999999999999</Hi></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>range</Stage><Lo>+1</Lo><Hi> 2</Hi></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>initial</Stage><Lo>1</Lo><Hi>2</Hi></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Value>v</Value><Stage>range</Stage></disco:Q>",
		"<disco:Q><Type>R</Type><Attr>A</Attr><Stage>range</Stage></disco:Q>",
		"<disco:Q><Attr>A</Attr><Type>R</Type><Value>v</Value><Stage>initial</Stage></disco:Q>",
	} {
		checkQuery([]byte(s), false, true)
	}

	checkTuple := func(data []byte, wantStrict, wantFallback bool) {
		t.Helper()
		got, gotErr := decodeTuple(data)
		want, wantErr := decodeTupleTree(data)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("decodeTuple(%q)\n got  %+v, %v\n want %+v, %v", data, got, gotErr, want, wantErr)
		}
		_, ok := scanTuple(data)
		if (ok && wantFallback) || (!ok && wantStrict) {
			t.Fatalf("scanTuple(%q) answered=%v", data, ok)
		}
		if ok {
			strict++
		} else {
			fallback++
		}
	}
	for i, tpl := range testTuples() {
		data := encodeTuple(tpl)
		checkTuple(data, plain(tpl.Key, string(tpl.PublisherAddr), tpl.NumAttr), false)
		if len(tpl.Key) > 100 && i%2 == 0 {
			continue
		}
		for _, f := range foreignForms(data, "srdi:Tuple") {
			checkTuple(f, false, true)
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
		checkTuple([]byte(s), false, true)
	}

	checkResponse := func(data []byte, wantStrict, wantFallback bool) {
		t.Helper()
		s := codecService()
		if err := sameAdvertisements(s.cacheResponse(data), decodeResponseTree(data), s.cache); err != nil {
			t.Fatalf("cacheResponse(%q): %v", data, err)
		}
		_, ok := splitResponse(data, nil)
		if (ok && wantFallback) || (!ok && wantStrict) {
			t.Fatalf("splitResponse(%q) answered=%v", data, ok)
		}
		if ok {
			strict++
		} else {
			fallback++
		}
	}
	advs := testAdvertisements()
	for i := range advs {
		row := advs[i:min(i+1+i%3, len(advs))]
		data := encodeResponseTree(row)
		isPlain := !bytes.ContainsAny(data, "&\r\"")
		checkResponse(data, isPlain, false)
		if len(data) > 400 && i%4 != 0 {
			continue
		}
		for _, f := range foreignForms(data, "disco:R") {
			checkResponse(f, false, false) // a cut can fall on a child boundary
		}
	}
	for _, s := range []string{
		"<disco:R><jxta:Mystery><X>1</X></jxta:Mystery></disco:R>",
		"<disco:R><jxta:PA><PID>junk</PID><Name>n</Name></jxta:PA><jxta:PA><PID>" + pub + "</PID><Name>n</Name></jxta:PA></disco:R>",
		"<disco:R><jxta:PA><PID>" + pub + "</PID><Name>n</Name><Name>m</Name><jxta:PA><PID>x</PID></jxta:PA></jxta:PA></disco:R>",
	} {
		checkResponse([]byte(s), true, false)
	}
	if strict < 300 || fallback < 1000 {
		t.Fatalf("strict path answered %d inputs, fallback %d: one side is barely exercised", strict, fallback)
	}
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
		if _, ok := cache.Get(got[i].ID()); !ok {
			return fmt.Errorf("advertisement %d (%s) was not cached", i, got[i].ID().Short())
		}
	}
	return nil
}
