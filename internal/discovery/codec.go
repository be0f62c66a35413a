package discovery

import (
	"strconv"
	"time"
	"unsafe"

	"jxta/internal/advertisement"
	"jxta/internal/document"
	"jxta/internal/ids"
	"jxta/internal/srdi"
	"jxta/internal/transport"
)

// The wire records: a query <disco:Q>, an index tuple <srdi:Tuple> and a
// response <disco:R>. The first two are flat — a root and a row of text
// children — and the third is a row of advertisements that are already
// encoded, so none of them needs a document tree in either direction.
//
// Writers append (document.AppendStartTag and friends) and produce exactly
// the bytes document.Marshal produced for the tree; equiv_test.go keeps the
// tree-building encoders as the reference they are compared against.
//
// Readers follow one rule: recognise the strict form the writers emit, from
// the bytes; hand anything else to the tree decoder; never guess. The strict
// form (document.Strict) has no attributes, no whitespace between tags, no
// '&' and no CR in text, the children in the writer's order and nothing
// after the root. Input in that form is read in place; for every other
// input — a foreign peer's formatting, an escaped value, a damaged frame —
// the scan gives up without an answer and the decode*Tree functions, the
// decoders this package always had, give theirs, errors included.

// queryBody is a decoded <disco:Q>. advType, attr and stage are strings of
// their own (protocol vocabulary, interned). value is on loan, as the
// resolver lends a Query's Payload: read in strict form it is a view of the
// decoded bytes, valid only while they are, so whatever keeps a body past
// the handler call copies value (a parked query does).
type queryBody struct {
	advType, attr, stage string
	value                []byte
	lo, hi               int64 // range stages only
}

// borrowed views b as a string for a call that only reads it and keeps
// nothing: a lookup key, an append. The string must not outlive b's loan.
func borrowed(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

func (b queryBody) isRange() bool {
	return b.stage == stageRange || b.stage == stageRangeDeliver
}

const (
	queryTag    = "disco:Q"
	tupleTag    = "srdi:Tuple"
	responseTag = "disco:R"
)

// appendQuery appends an exact-match query to buf.
func appendQuery(buf []byte, advType, attr, value, stage string) []byte {
	buf = document.AppendStartTag(buf, queryTag)
	buf = document.AppendTextElement(buf, "Type", advType)
	buf = document.AppendTextElement(buf, "Attr", attr)
	buf = document.AppendTextElement(buf, "Value", value)
	buf = document.AppendTextElement(buf, "Stage", stage)
	return document.AppendEndTag(buf, queryTag)
}

func encodeRangeQuery(advType, attr string, lo, hi int64, stage string) []byte {
	// 2×20 covers two 64-bit integers in decimal.
	const frame = len("<disco:Q><Type></Type><Attr></Attr><Stage></Stage><Lo></Lo><Hi></Hi></disco:Q>") + 2*20
	buf := make([]byte, 0, frame+len(advType)+len(attr)+len(stage))
	buf = document.AppendStartTag(buf, queryTag)
	buf = document.AppendTextElement(buf, "Type", advType)
	buf = document.AppendTextElement(buf, "Attr", attr)
	buf = document.AppendTextElement(buf, "Stage", stage)
	buf = appendIntElement(buf, "Lo", lo)
	buf = appendIntElement(buf, "Hi", hi)
	return document.AppendEndTag(buf, queryTag)
}

// appendIntElement appends <name>v</name>; a decimal needs no escaping.
func appendIntElement(buf []byte, name string, v int64) []byte {
	buf = document.AppendStartTag(buf, name)
	buf = strconv.AppendInt(buf, v, 10)
	return document.AppendEndTag(buf, name)
}

func decodeQuery(data []byte) (queryBody, error) {
	if b, ok := scanQuery(data); ok {
		return b, nil
	}
	return decodeQueryTree(data)
}

// scanQuery reads a query in strict form: the exact-match shape (Type, Attr,
// Value, Stage) or the range shape (Type, Attr, Stage, Lo, Hi).
func scanQuery(data []byte) (queryBody, bool) {
	r := document.Strict{Rest: data}
	r.Open(queryTag)
	advType, attr := r.Text("Type"), r.Text("Attr")
	var value, stage, lo, hi []byte
	exact := r.At("Value")
	if exact {
		value, stage = r.Text("Value"), r.Text("Stage")
	} else {
		stage, lo, hi = r.Text("Stage"), r.Text("Lo"), r.Text("Hi")
	}
	r.Close(queryTag)
	if !r.Done() {
		return queryBody{}, false
	}
	b := queryBody{
		advType: document.Intern(advType),
		attr:    document.Intern(attr),
		value:   value,
		stage:   document.Intern(stage),
	}
	if b.isRange() == exact {
		return queryBody{}, false // the stage does not go with the shape
	}
	if !exact {
		var errLo, errHi error
		b.lo, errLo = strconv.ParseInt(string(lo), 10, 64)
		b.hi, errHi = strconv.ParseInt(string(hi), 10, 64)
		if errLo != nil || errHi != nil {
			return queryBody{}, false
		}
	}
	return b, true
}

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

// appendTuple appends the encoding of t to buf: into a pooled message's
// scratch for a push that is sent at once, into a fresh buffer (encodeTuple)
// for a message that is kept.
func appendTuple(buf []byte, t srdi.Tuple) []byte {
	buf = document.AppendStartTag(buf, tupleTag)
	buf = document.AppendTextElement(buf, "Key", t.Key)
	buf = document.AppendStartTag(buf, "Pub") // a URN needs no escaping
	buf = t.Publisher.AppendString(buf)
	buf = document.AppendEndTag(buf, "Pub")
	buf = document.AppendTextElement(buf, "Addr", string(t.PublisherAddr))
	buf = appendIntElement(buf, "Life", int64(t.Lifetime))
	if t.NumAttr != "" {
		buf = document.AppendTextElement(buf, "NA", t.NumAttr)
		buf = appendIntElement(buf, "NV", t.NumValue)
	}
	return document.AppendEndTag(buf, tupleTag)
}

func encodeTuple(t srdi.Tuple) []byte {
	// 56 is a rendered URN; 2×20 covers two 64-bit integers in decimal.
	const frame = len("<srdi:Tuple><Key></Key><Pub></Pub><Addr></Addr><Life></Life><NA></NA><NV></NV></srdi:Tuple>") + 56 + 2*20
	return appendTuple(make([]byte, 0, frame+len(t.Key)+len(t.PublisherAddr)+len(t.NumAttr)), t)
}

func decodeTuple(data []byte) (srdi.Tuple, error) {
	if t, ok := scanTuple(data); ok {
		return t, nil
	}
	return decodeTupleTree(data)
}

// scanTuple reads a tuple in strict form: Key, Pub, Addr, Life and, for a
// numeric registration, NA and NV.
func scanTuple(data []byte) (srdi.Tuple, bool) {
	r := document.Strict{Rest: data}
	r.Open(tupleTag)
	key, pub, addr, life := r.Text("Key"), r.Text("Pub"), r.Text("Addr"), r.Text("Life")
	var na, nv []byte
	numeric := r.At("NA")
	if numeric {
		na, nv = r.Text("NA"), r.Text("NV")
	}
	r.Close(tupleTag)
	if !r.Done() || (numeric && len(na) == 0) {
		return srdi.Tuple{}, false
	}
	publisher, errPub := ids.ParseBytes(pub)
	lifetime, errLife := strconv.ParseInt(string(life), 10, 64)
	if errPub != nil || errLife != nil {
		return srdi.Tuple{}, false
	}
	t := srdi.Tuple{
		Key:           document.Intern(key),
		Publisher:     publisher,
		PublisherAddr: transport.Addr(document.Intern(addr)),
		Lifetime:      time.Duration(lifetime),
	}
	if numeric {
		value, err := strconv.ParseInt(string(nv), 10, 64)
		if err != nil {
			return srdi.Tuple{}, false
		}
		t.NumAttr, t.NumValue = document.Intern(na), value
	}
	return t, true
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

// encodeResponse wraps the matches in a <disco:R>. The advertisements are
// not encoded here: each comes out of the local cache, whose record retains
// the canonical encoding (encoded at most once, however often it is served).
// An advertisement that cannot be encoded voids the response, as it voided
// the tree's Marshal.
func (s *Service) encodeResponse(matches []advertisement.Advertisement) []byte {
	var room [4][]byte
	encoded := room[:0]
	size := len("<disco:R></disco:R>")
	for _, adv := range matches {
		enc := s.cache.Encoded(adv.ID())
		if enc == nil {
			return nil
		}
		encoded = append(encoded, enc)
		size += len(enc)
	}
	buf := document.AppendStartTag(make([]byte, 0, size), responseTag)
	for _, enc := range encoded {
		buf = append(buf, enc...)
	}
	return document.AppendEndTag(buf, responseTag)
}

// cacheResponse files the advertisements of a response in the local cache
// and returns them. In strict form the response is split without decoding
// and each advertisement goes to the cache still encoded, where the
// interning store recognises one it already holds from its bytes — in a
// simulated overlay that is the publisher's own copy, so the requester
// decodes nothing.
func (s *Service) cacheResponse(data []byte) []advertisement.Advertisement {
	var room [4][]byte
	encoded, ok := splitResponse(data, room[:0])
	if !ok {
		advs := decodeResponseTree(data)
		for _, adv := range advs {
			s.cache.Put(adv, advertisement.DefaultExpiration, false)
		}
		return advs
	}
	var advs []advertisement.Advertisement
	for _, enc := range encoded {
		// As in the tree decoder, a child that is no advertisement is skipped.
		if adv, err := s.cache.PutEncoded(enc, advertisement.DefaultExpiration, false); err == nil {
			advs = append(advs, adv)
		}
	}
	return advs
}

// splitResponse appends to encoded the bytes of each child of a response in
// strict form.
func splitResponse(data []byte, encoded [][]byte) ([][]byte, bool) {
	r := document.Strict{Rest: data}
	r.Open(responseTag)
	for r.More() {
		encoded = append(encoded, r.Element())
	}
	r.Close(responseTag)
	return encoded, r.Done()
}

func decodeResponseTree(data []byte) []advertisement.Advertisement {
	doc, err := document.Unmarshal(data)
	if err != nil {
		return nil
	}
	var advs []advertisement.Advertisement
	for _, child := range doc.Children {
		if adv, err := advertisement.Decode(child); err == nil {
			advs = append(advs, adv)
		}
	}
	return advs
}
