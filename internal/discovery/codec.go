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
// Readers read the one form the writers emit (document.Strict), in place:
// the children in the writer's order, nothing between tags, escaped text
// unescaped, nothing after the root. Anything else is malformed and an
// error. The wire is this repository's own message framing, so no peer that
// can reach a node sends another form; equiv_test.go keeps the tree
// decoders as the reference the readers are held to on the input they
// accept.

// queryBody is a decoded <disco:Q>. advType, attr and stage are strings of
// their own (protocol vocabulary, interned). value is on loan, as the
// resolver lends a Query's Payload: unless it was escaped it is a view of the
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

// decodeQuery reads a query: the exact-match shape (Type, Attr, Value,
// Stage) or the range shape (Type, Attr, Stage, Lo, Hi).
func decodeQuery(data []byte) (queryBody, error) {
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
		return queryBody{}, document.ErrMalformed
	}
	b := queryBody{
		advType: document.Intern(advType),
		attr:    document.Intern(attr),
		value:   value,
		stage:   document.Intern(stage),
	}
	if b.isRange() == exact {
		return queryBody{}, document.ErrMalformed // the stage does not go with the shape
	}
	if !exact {
		var err error
		if b.lo, err = strconv.ParseInt(string(lo), 10, 64); err != nil {
			return queryBody{}, err
		}
		if b.hi, err = strconv.ParseInt(string(hi), 10, 64); err != nil {
			return queryBody{}, err
		}
	}
	return b, nil
}

// tupleFrame bounds a tuple's encoding less its key, address and numeric
// attribute when none of them needs escaping: 56 is a rendered URN, 2×20
// two 64-bit integers in decimal.
const tupleFrame = len("<srdi:Tuple><Key></Key><Pub></Pub><Addr></Addr><Life></Life><NA></NA><NV></NV></srdi:Tuple>") + 56 + 2*20

// appendTuple appends the encoding of t to buf, a pooled message's scratch
// in sendTuples.
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

// decodeTuple reads a tuple: Key, Pub, Addr, Life and, for a numeric
// registration, NA and NV. held is the node's route table. When it holds the
// publisher at the tuple's address, as it does for every tuple an edge pushes
// itself, the tuple shares the route's string; otherwise it keeps a copy.
func decodeTuple(data []byte, held func(ids.ID) (transport.Addr, bool)) (srdi.Tuple, error) {
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
		return srdi.Tuple{}, document.ErrMalformed
	}
	publisher, err := ids.ParseBytes(pub)
	if err != nil {
		return srdi.Tuple{}, err
	}
	lifetime, err := strconv.ParseInt(string(life), 10, 64)
	if err != nil {
		return srdi.Tuple{}, err
	}
	route, ok := held(publisher)
	if !ok || string(route) != string(addr) {
		route = transport.Addr(addr)
	}
	t := srdi.Tuple{
		Key:           document.Intern(key),
		Publisher:     publisher,
		PublisherAddr: route,
		Lifetime:      time.Duration(lifetime),
	}
	if numeric {
		if t.NumValue, err = strconv.ParseInt(string(nv), 10, 64); err != nil {
			return srdi.Tuple{}, err
		}
		t.NumAttr = document.Intern(na)
	}
	return t, nil
}

// encodeResponse wraps the matches in a <disco:R>, in scratch the service
// owns: the response is sent at once (Respond copies it into the message),
// and the next response overwrites it. The advertisements are not encoded
// here: each comes out of the local cache, whose record retains the canonical
// encoding (encoded at most once, however often it is served). An
// advertisement that cannot be encoded voids the response, as it voided the
// tree's Marshal.
func (s *Service) encodeResponse(matches []advertisement.Advertisement) []byte {
	h := s.hops()
	buf := document.AppendStartTag(h.response[:0], responseTag)
	for _, adv := range matches {
		enc := s.cache.Encoded(adv.ID())
		if enc == nil {
			return nil
		}
		buf = append(buf, enc...)
	}
	h.response = document.AppendEndTag(buf, responseTag)
	return h.response
}

// cacheResponse files the advertisements of a response in the local cache
// and appends them to dst. The response is split without decoding and each
// advertisement goes to the cache still encoded, where the interning store
// recognises one it already holds from its bytes — in a simulated overlay
// that is the publisher's own copy, so the requester decodes nothing. A
// malformed response returns dst and false and leaves the cache untouched;
// a well-formed one reports true, whether or not it held an advertisement
// this node reads.
func (s *Service) cacheResponse(dst []advertisement.Advertisement, data []byte) ([]advertisement.Advertisement, bool) {
	var room [4][]byte
	encoded := room[:0]
	r := document.Strict{Rest: data}
	r.Open(responseTag)
	for r.More() {
		encoded = append(encoded, r.Element())
	}
	r.Close(responseTag)
	if !r.Done() {
		return dst, false
	}
	for _, enc := range encoded {
		// A child that is no advertisement this node reads is skipped.
		if adv, err := s.cache.PutEncoded(enc, advertisement.DefaultExpiration, false); err == nil {
			dst = append(dst, adv)
		}
	}
	return dst, true
}
