// Package advertisement implements the JXTA advertisements the protocols
// here exchange: XML documents describing peers, rendezvous peers and
// generic resources. Advertisements are what the discovery protocol
// publishes and finds; AppendIndexFields names the attributes by which each
// type's instances are indexed in the SRDI / LC-DHT (the paper's §3.3
// hashes the concatenation "type + attribute + value", e.g. "PeerNameTest").
package advertisement

import (
	"errors"
	"strconv"
	"time"

	"jxta/internal/document"
	"jxta/internal/ids"
)

// Default lifetimes from the JXTA 2.x implementations. Lifetime is how long
// the publisher itself considers the advertisement valid; Expiration is the
// remote-cache lifetime attached when the advertisement travels.
const (
	DefaultLifetime   = 365 * 24 * time.Hour
	DefaultExpiration = 2 * time.Hour
)

// IndexField is one (attribute, value) pair by which an advertisement is
// indexed. The discovery protocol publishes these to the rendezvous SRDI.
type IndexField struct {
	Attr  string
	Value string
}

// Key builds the hash input string for the LC-DHT exactly as the paper
// describes: advertisement type, then attribute name, then value
// ("Peer" + "Name" + "Test" -> "PeerNameTest").
func (f IndexField) Key(advType string) string { return advType + f.Attr + f.Value }

// Int reports the field's value as an integer, for range queries.
// The value is screened first: strconv.ParseInt allocates its error, and
// most indexed values (names, URNs) are not numbers.
func (f IndexField) Int() (int64, bool) {
	digits := f.Value
	if digits != "" && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	v, err := strconv.ParseInt(f.Value, 10, 64)
	return v, err == nil
}

// Advertisement is the behaviour common to every advertisement type.
type Advertisement interface {
	// ID returns the identifier of the described resource.
	ID() ids.ID
	// Type returns the short type tag used in index keys ("Peer", "Rdv",
	// "Resource").
	Type() string
	// DocType returns the XML document name ("jxta:PA", "jxta:RdvAdv", ...).
	DocType() string
	// Document renders the advertisement as a structured document.
	Document() *document.Element
}

// ErrUnknownType reports an advertisement document, or value, of a type this
// package does not define.
var ErrUnknownType = errors.New("advertisement: unknown advertisement type")

// Decode reads an advertisement from a document tree, by way of the tree's
// encoding.
func Decode(e *document.Element) (Advertisement, error) {
	data, err := e.Marshal()
	if err != nil {
		return nil, err
	}
	return DecodeXML(data)
}

// DecodeXML reads an advertisement in the strict form AppendXML writes
// (document.Strict): the root tag picks the type, then its fields are read
// in the order AppendXML writes them, Desc optional and Addr and Attr
// repeated. Any other form is document.ErrMalformed. Every string is the
// advertisement's own; nothing aliases data.
func DecodeXML(data []byte) (Advertisement, error) {
	r := reader{Strict: document.Strict{Rest: data}}
	var a Advertisement
	switch {
	case r.At("jxta:PA"):
		p := &Peer{}
		r.Open(p.DocType())
		p.PeerID, p.Name = r.id("PID"), r.text("Name")
		if r.At("Desc") {
			p.Desc = r.text("Desc")
		}
		for r.More() {
			p.Addresses = append(p.Addresses, r.text("Addr"))
		}
		a = p
	case r.At("jxta:RdvAdvertisement"):
		rdv := &Rdv{}
		r.Open(rdv.DocType())
		rdv.PeerID, rdv.GroupID = r.id("RdvPeerID"), r.id("RdvGroupId")
		rdv.Name, rdv.Address = r.text("Name"), r.text("Addr")
		a = rdv
	case r.At("jxta:ResourceAdv"):
		res := &Resource{}
		r.Open(res.DocType())
		res.ResID, res.Name = r.id("Id"), r.text("Name")
		for r.More() {
			attr, value := r.AttrText("Attr", "name")
			res.Attrs = append(res.Attrs, IndexField{Attr: document.Intern(attr), Value: document.Intern(value)})
		}
		a = res
	default:
		return nil, ErrUnknownType
	}
	r.Close(a.DocType())
	if !r.Done() {
		return nil, document.ErrMalformed
	}
	if r.err != nil {
		return nil, r.err
	}
	return a, nil
}

// RdvPeerIDBytes reads only the start tag and first field of a rendezvous
// advertisement, with DecodeXML's reader: when DecodeXML accepts wire as an
// *Rdv, this is its PeerID. The rest is not read, so the ID is only a hint.
func RdvPeerIDBytes(wire []byte) (ids.ID, bool) {
	r := reader{Strict: document.Strict{Rest: wire}}
	r.Open("jxta:RdvAdvertisement")
	id := r.id("RdvPeerID")
	return id, r.err == nil
}

// reader is DecodeXML's cursor: a strict reader that keeps the first ID
// that does not parse.
type reader struct {
	document.Strict
	err error
}

// text reads <name>text</name> into a string of its own.
func (r *reader) text(name string) string { return document.Intern(r.Text(name)) }

// id reads <name>urn</name> as an ID.
func (r *reader) id(name string) ids.ID {
	id, err := ids.ParseBytes(r.Text(name))
	if err != nil && r.err == nil {
		r.err = err
	}
	return id
}

// encodeRoom is the stack buffer EncodeXML writes into: room for every
// advertisement the protocols exchange but the largest resources.
const encodeRoom = 512

// EncodeXML renders an advertisement to XML bytes, in a slice of its own
// whose capacity is its length.
func EncodeXML(a Advertisement) ([]byte, error) {
	var room [encodeRoom]byte
	enc, err := AppendXML(room[:0], a)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(enc))
	copy(out, enc)
	return out, nil
}

// AppendXML appends the XML encoding of a to buf: exactly the bytes
// a.Document().Marshal() produces, written without building the tree. A
// type switch, not a method, so a buf on the caller's stack stays there.
func AppendXML(buf []byte, a Advertisement) ([]byte, error) {
	switch a := a.(type) {
	case *Peer:
		buf = document.AppendStartTag(buf, a.DocType())
		buf = appendIDElement(buf, "PID", a.PeerID)
		buf = document.AppendTextElement(buf, "Name", a.Name)
		if a.Desc != "" {
			buf = document.AppendTextElement(buf, "Desc", a.Desc)
		}
		for _, addr := range a.Addresses {
			buf = document.AppendTextElement(buf, "Addr", addr)
		}
		return document.AppendEndTag(buf, a.DocType()), nil
	case *Rdv:
		buf = document.AppendStartTag(buf, a.DocType())
		buf = appendIDElement(buf, "RdvPeerID", a.PeerID)
		buf = appendIDElement(buf, "RdvGroupId", a.GroupID)
		buf = document.AppendTextElement(buf, "Name", a.Name)
		buf = document.AppendTextElement(buf, "Addr", a.Address)
		return document.AppendEndTag(buf, a.DocType()), nil
	case *Resource:
		buf = document.AppendStartTag(buf, a.DocType())
		buf = appendIDElement(buf, "Id", a.ResID)
		buf = document.AppendTextElement(buf, "Name", a.Name)
		for _, f := range a.Attrs {
			buf = document.AppendAttrTextElement(buf, "Attr", "name", f.Attr, f.Value)
		}
		return document.AppendEndTag(buf, a.DocType()), nil
	}
	return buf, ErrUnknownType
}

// appendIDElement appends <name>id</name>; a URN needs no escaping.
func appendIDElement(buf []byte, name string, id ids.ID) []byte {
	buf = document.AppendStartTag(buf, name)
	buf = id.AppendString(buf)
	return document.AppendEndTag(buf, name)
}

// AppendIndexFields appends the attributes a is indexed by to dst: the one
// definition of each type's index fields. A type switch, not a method, so a
// dst on the caller's stack stays there.
func AppendIndexFields(dst []IndexField, a Advertisement) []IndexField {
	switch a := a.(type) {
	case *Peer:
		return append(dst, IndexField{Attr: "Name", Value: a.Name}, IndexField{Attr: "PID", Value: a.PeerID.String()})
	case *Rdv:
		return append(dst, IndexField{Attr: "RdvPeerID", Value: a.PeerID.String()}, IndexField{Attr: "RdvGroupId", Value: a.GroupID.String()})
	case *Resource:
		return append(append(dst, IndexField{Attr: "Name", Value: a.Name}), a.Attrs...)
	}
	return dst
}

// Peer describes a peer: its ID, symbolic name and endpoint addresses.
// Indexed by Name and PID, like JXTA's peer advertisement.
type Peer struct {
	PeerID    ids.ID
	Name      string
	Desc      string
	Addresses []string
}

// ID implements Advertisement.
func (p *Peer) ID() ids.ID { return p.PeerID }

// Type implements Advertisement.
func (p *Peer) Type() string { return "Peer" }

// DocType implements Advertisement.
func (p *Peer) DocType() string { return "jxta:PA" }

// Document implements Advertisement.
func (p *Peer) Document() *document.Element {
	e := document.NewElement("jxta:PA").
		AppendText("PID", p.PeerID.String()).
		AppendText("Name", p.Name)
	if p.Desc != "" {
		e.AppendText("Desc", p.Desc)
	}
	for _, a := range p.Addresses {
		e.AppendText("Addr", a)
	}
	return e
}

// Rdv is a rendezvous advertisement: the payload of peerview probes,
// responses and referrals (§3.2). It names the rendezvous peer, the group it
// serves, and how to reach it.
type Rdv struct {
	PeerID  ids.ID
	GroupID ids.ID
	Name    string
	Address string
}

// ID implements Advertisement.
func (r *Rdv) ID() ids.ID { return r.PeerID }

// Type implements Advertisement.
func (r *Rdv) Type() string { return "Rdv" }

// DocType implements Advertisement.
func (r *Rdv) DocType() string { return "jxta:RdvAdvertisement" }

// Document implements Advertisement.
func (r *Rdv) Document() *document.Element {
	return document.NewElement("jxta:RdvAdvertisement").
		AppendText("RdvPeerID", r.PeerID.String()).
		AppendText("RdvGroupId", r.GroupID.String()).
		AppendText("Name", r.Name).
		AppendText("Addr", r.Address)
}

// Resource is a generic application advertisement with free-form indexed
// attributes. The paper's "fake advertisements" published by noiser peers and
// the grid-resource use case both map onto it.
type Resource struct {
	ResID ids.ID
	Name  string
	Attrs []IndexField // additional indexed attributes beyond Name
}

// ID implements Advertisement.
func (r *Resource) ID() ids.ID { return r.ResID }

// Type implements Advertisement.
func (r *Resource) Type() string { return "Resource" }

// DocType implements Advertisement.
func (r *Resource) DocType() string { return "jxta:ResourceAdv" }

// Document implements Advertisement.
func (r *Resource) Document() *document.Element {
	e := document.NewElement("jxta:ResourceAdv").
		AppendText("Id", r.ResID.String()).
		AppendText("Name", r.Name)
	for _, f := range r.Attrs {
		e.Append(document.NewElement("Attr").
			WithAttr("name", f.Attr).
			WithText(f.Value))
	}
	return e
}

// Compile-time interface checks.
var (
	_ Advertisement = (*Peer)(nil)
	_ Advertisement = (*Rdv)(nil)
	_ Advertisement = (*Resource)(nil)
)
