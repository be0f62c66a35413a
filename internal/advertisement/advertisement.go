// Package advertisement implements JXTA advertisements: XML documents
// describing resources (peers, rendezvous peers, routes, pipes, modules,
// generic resources). Advertisements are what the discovery protocol
// publishes and finds; each type declares the attributes by which its
// instances are indexed in the SRDI / LC-DHT (the paper's §3.3 hashes the
// concatenation "type + attribute + value", e.g. "PeerNameTest").
package advertisement

import (
	"errors"
	"fmt"
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

// Int reports the field's value as an integer, for the numeric index tier.
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
	// "Route", "Pipe", "Module", "Resource").
	Type() string
	// DocType returns the XML document name ("jxta:PA", "jxta:RdvAdv", ...).
	DocType() string
	// IndexFields returns the attributes this advertisement is indexed by.
	IndexFields() []IndexField
	// Document renders the advertisement as a structured document.
	Document() *document.Element
}

// ErrUnknownType reports an advertisement document with no registered codec.
var ErrUnknownType = errors.New("advertisement: unknown advertisement type")

// Decode parses a structured document into a typed advertisement.
func Decode(e *document.Element) (Advertisement, error) {
	switch e.Name {
	case "jxta:PA":
		return decodePeer(e)
	case "jxta:RdvAdvertisement":
		return decodeRdv(e)
	case "jxta:RA":
		return decodeRoute(e)
	case "jxta:PipeAdvertisement":
		return decodePipe(e)
	case "jxta:MIA":
		return decodeModule(e)
	case "jxta:ResourceAdv":
		return decodeResource(e)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownType, e.Name)
}

// DecodeXML parses raw XML bytes into a typed advertisement.
func DecodeXML(data []byte) (Advertisement, error) {
	e, err := document.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return Decode(e)
}

// EncodeXML renders an advertisement to XML bytes.
func EncodeXML(a Advertisement) ([]byte, error) { return a.Document().Marshal() }

func parseID(e *document.Element, child string) (ids.ID, error) {
	text := e.ChildText(child)
	if text == "" {
		return ids.Nil, fmt.Errorf("advertisement: <%s> missing <%s>", e.Name, child)
	}
	return ids.Parse(text)
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

// IndexFields implements Advertisement.
func (p *Peer) IndexFields() []IndexField {
	return []IndexField{
		{Attr: "Name", Value: p.Name},
		{Attr: "PID", Value: p.PeerID.String()},
	}
}

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

func decodePeer(e *document.Element) (*Peer, error) {
	id, err := parseID(e, "PID")
	if err != nil {
		return nil, err
	}
	p := &Peer{PeerID: id, Name: e.ChildText("Name"), Desc: e.ChildText("Desc")}
	e.Each("Addr", func(c *document.Element) { p.Addresses = append(p.Addresses, c.Text) })
	return p, nil
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

// IndexFields implements Advertisement.
func (r *Rdv) IndexFields() []IndexField {
	return []IndexField{
		{Attr: "RdvPeerID", Value: r.PeerID.String()},
		{Attr: "RdvGroupId", Value: r.GroupID.String()},
	}
}

// Document implements Advertisement.
func (r *Rdv) Document() *document.Element {
	return document.NewElement("jxta:RdvAdvertisement").
		AppendText("RdvPeerID", r.PeerID.String()).
		AppendText("RdvGroupId", r.GroupID.String()).
		AppendText("Name", r.Name).
		AppendText("Addr", r.Address)
}

func decodeRdv(e *document.Element) (*Rdv, error) {
	pid, err := parseID(e, "RdvPeerID")
	if err != nil {
		return nil, err
	}
	gid, err := parseID(e, "RdvGroupId")
	if err != nil {
		return nil, err
	}
	return &Rdv{PeerID: pid, GroupID: gid, Name: e.ChildText("Name"), Address: e.ChildText("Addr")}, nil
}

// Route is an endpoint-routing-protocol route advertisement: destination
// peer plus an ordered hop list.
type Route struct {
	DestID ids.ID
	Hops   []ids.ID
}

// ID implements Advertisement.
func (r *Route) ID() ids.ID { return r.DestID }

// Type implements Advertisement.
func (r *Route) Type() string { return "Route" }

// DocType implements Advertisement.
func (r *Route) DocType() string { return "jxta:RA" }

// IndexFields implements Advertisement.
func (r *Route) IndexFields() []IndexField {
	return []IndexField{{Attr: "DstPID", Value: r.DestID.String()}}
}

// Document implements Advertisement.
func (r *Route) Document() *document.Element {
	e := document.NewElement("jxta:RA").AppendText("DstPID", r.DestID.String())
	for _, h := range r.Hops {
		e.AppendText("Hop", h.String())
	}
	return e
}

func decodeRoute(e *document.Element) (*Route, error) {
	id, err := parseID(e, "DstPID")
	if err != nil {
		return nil, err
	}
	r := &Route{DestID: id}
	var decodeErr error
	e.Each("Hop", func(c *document.Element) {
		h, err := ids.Parse(c.Text)
		if err != nil {
			decodeErr = err
			return
		}
		r.Hops = append(r.Hops, h)
	})
	return r, decodeErr
}

// Pipe describes a communication pipe (unidirectional channel abstraction).
type Pipe struct {
	PipeID ids.ID
	Name   string
	Kind   string // "JxtaUnicast" or "JxtaPropagate"
}

// ID implements Advertisement.
func (p *Pipe) ID() ids.ID { return p.PipeID }

// Type implements Advertisement.
func (p *Pipe) Type() string { return "Pipe" }

// DocType implements Advertisement.
func (p *Pipe) DocType() string { return "jxta:PipeAdvertisement" }

// IndexFields implements Advertisement.
func (p *Pipe) IndexFields() []IndexField {
	return []IndexField{
		{Attr: "Name", Value: p.Name},
		{Attr: "Id", Value: p.PipeID.String()},
	}
}

// Document implements Advertisement.
func (p *Pipe) Document() *document.Element {
	return document.NewElement("jxta:PipeAdvertisement").
		AppendText("Id", p.PipeID.String()).
		AppendText("Name", p.Name).
		AppendText("Type", p.Kind)
}

func decodePipe(e *document.Element) (*Pipe, error) {
	id, err := parseID(e, "Id")
	if err != nil {
		return nil, err
	}
	return &Pipe{PipeID: id, Name: e.ChildText("Name"), Kind: e.ChildText("Type")}, nil
}

// Module describes a module implementation (a service a group provides).
type Module struct {
	ModuleID ids.ID
	Name     string
	Desc     string
}

// ID implements Advertisement.
func (m *Module) ID() ids.ID { return m.ModuleID }

// Type implements Advertisement.
func (m *Module) Type() string { return "Module" }

// DocType implements Advertisement.
func (m *Module) DocType() string { return "jxta:MIA" }

// IndexFields implements Advertisement.
func (m *Module) IndexFields() []IndexField {
	return []IndexField{{Attr: "Name", Value: m.Name}}
}

// Document implements Advertisement.
func (m *Module) Document() *document.Element {
	e := document.NewElement("jxta:MIA").
		AppendText("MSID", m.ModuleID.String()).
		AppendText("Name", m.Name)
	if m.Desc != "" {
		e.AppendText("Desc", m.Desc)
	}
	return e
}

func decodeModule(e *document.Element) (*Module, error) {
	id, err := parseID(e, "MSID")
	if err != nil {
		return nil, err
	}
	return &Module{ModuleID: id, Name: e.ChildText("Name"), Desc: e.ChildText("Desc")}, nil
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

// IndexFields implements Advertisement.
func (r *Resource) IndexFields() []IndexField {
	fields := []IndexField{{Attr: "Name", Value: r.Name}}
	return append(fields, r.Attrs...)
}

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

func decodeResource(e *document.Element) (*Resource, error) {
	id, err := parseID(e, "Id")
	if err != nil {
		return nil, err
	}
	r := &Resource{ResID: id, Name: e.ChildText("Name")}
	e.Each("Attr", func(c *document.Element) {
		name, _ := c.Attr("name")
		r.Attrs = append(r.Attrs, IndexField{Attr: name, Value: c.Text})
	})
	return r, nil
}

// Compile-time interface checks.
var (
	_ Advertisement = (*Peer)(nil)
	_ Advertisement = (*Rdv)(nil)
	_ Advertisement = (*Route)(nil)
	_ Advertisement = (*Pipe)(nil)
	_ Advertisement = (*Module)(nil)
	_ Advertisement = (*Resource)(nil)
)
