// Package document implements the lightweight structured documents that JXTA
// protocols exchange. The JXTA 2.0 specification defines every protocol
// payload and every advertisement as an XML document; this package provides
// an element tree plus a round-trippable XML codec.
//
// The codec is hand-rolled for the restricted document shape JXTA uses (no
// mixed content, prefixes kept verbatim): the simulator encodes and decodes
// a document for nearly every protocol message, and encoding/xml's
// tokenizer allocated roughly 25 objects per small document — the single
// largest garbage source in whole-overlay simulations. Output is
// byte-identical to the previous encoding/xml-based encoder (escaping
// included), which the tests assert against an encoding/xml reference; the
// determinism golden tests depend on that stability because message sizes
// feed the latency model.
package document

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Attr is a single XML attribute. Attributes keep their document order so
// encoding is deterministic (the simulator depends on byte-stable output for
// reproducible message sizes).
type Attr struct {
	Name  string
	Value string
}

// Element is a node of a structured document: a name, optional attributes,
// either text content or child elements (mixed content is not used by any
// JXTA document type and is rejected by the codec).
type Element struct {
	Name     string
	Attrs    []Attr
	Text     string
	Children []*Element
}

// NewElement builds an element with the given name.
func NewElement(name string) *Element { return &Element{Name: name} }

// WithText sets the text content and returns the element for chaining.
func (e *Element) WithText(text string) *Element {
	e.Text = text
	return e
}

// WithAttr appends an attribute and returns the element for chaining.
func (e *Element) WithAttr(name, value string) *Element {
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
	return e
}

// Append adds children and returns the receiver for chaining.
func (e *Element) Append(children ...*Element) *Element {
	e.Children = append(e.Children, children...)
	return e
}

// AppendText adds a child element carrying only text. This is the dominant
// shape in advertisements (e.g. <Name>Test</Name>).
func (e *Element) AppendText(name, text string) *Element {
	return e.Append(NewElement(name).WithText(text))
}

// Attr returns the value of the named attribute and whether it was present.
func (e *Element) Attr(name string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Child returns the first child with the given name, or nil.
func (e *Element) Child(name string) *Element {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the text of the first child with the given name, or "".
func (e *Element) ChildText(name string) string {
	if c := e.Child(name); c != nil {
		return c.Text
	}
	return ""
}

// Each calls fn for every child with the given name.
func (e *Element) Each(name string, fn func(*Element)) {
	for _, c := range e.Children {
		if c.Name == name {
			fn(c)
		}
	}
}

// Clone returns a deep copy.
func (e *Element) Clone() *Element {
	if e == nil {
		return nil
	}
	cp := &Element{Name: e.Name, Text: e.Text}
	if len(e.Attrs) > 0 {
		cp.Attrs = append([]Attr(nil), e.Attrs...)
	}
	for _, c := range e.Children {
		cp.Children = append(cp.Children, c.Clone())
	}
	return cp
}

// Equal reports deep structural equality.
func (e *Element) Equal(o *Element) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Name != o.Name || e.Text != o.Text ||
		len(e.Attrs) != len(o.Attrs) || len(e.Children) != len(o.Children) {
		return false
	}
	for i := range e.Attrs {
		if e.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	for i := range e.Children {
		if !e.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Size estimates the encoded byte size without performing the encoding.
// Transports use it to model bandwidth/latency costs cheaply.
func (e *Element) Size() int {
	if e == nil {
		return 0
	}
	n := 2*len(e.Name) + 5 // <name></name>
	for _, a := range e.Attrs {
		n += len(a.Name) + len(a.Value) + 4
	}
	n += len(e.Text)
	for _, c := range e.Children {
		n += c.Size()
	}
	return n
}

// ErrMixedContent reports a document mixing text and child elements.
var ErrMixedContent = errors.New("document: element mixes text and children")

// Marshal encodes the element tree. Output is deterministic and
// byte-identical to the historical encoding/xml encoder for this document
// subset (spaces between attributes, double-quoted values, `&#34;`-style
// escapes, explicit end tags).
func (e *Element) Marshal() ([]byte, error) {
	return e.appendXML(make([]byte, 0, e.Size()+16))
}

func (e *Element) appendXML(buf []byte) ([]byte, error) {
	if e.Text != "" && len(e.Children) > 0 {
		return nil, fmt.Errorf("%w: <%s>", ErrMixedContent, e.Name)
	}
	if len(e.Children) == 0 && len(e.Attrs) == 0 {
		return AppendTextElement(buf, e.Name, e.Text), nil
	}
	if len(e.Attrs) == 0 {
		buf = AppendStartTag(buf, e.Name)
	} else {
		buf = append(buf, '<')
		buf = append(buf, e.Name...)
		for _, a := range e.Attrs {
			buf = append(buf, ' ')
			buf = append(buf, a.Name...)
			buf = append(buf, '=', '"')
			buf = appendEscaped(buf, a.Value, true)
			buf = append(buf, '"')
		}
		buf = append(buf, '>')
	}
	// Newlines stay literal in character data (encoding/xml escapes them
	// only inside attribute values).
	buf = appendEscaped(buf, e.Text, false)
	var err error
	for _, c := range e.Children {
		if buf, err = c.appendXML(buf); err != nil {
			return nil, err
		}
	}
	return AppendEndTag(buf, e.Name), nil
}

// The writers Marshal is made of, for callers whose documents are flat
// records (a root and a row of text children, one attribute at most):
// appending straight to a buffer produces exactly Marshal's bytes without
// building the tree.

// AppendStartTag appends <name>.
func AppendStartTag(buf []byte, name string) []byte {
	buf = append(buf, '<')
	buf = append(buf, name...)
	return append(buf, '>')
}

// AppendEndTag appends </name>.
func AppendEndTag(buf []byte, name string) []byte {
	buf = append(buf, '<', '/')
	buf = append(buf, name...)
	return append(buf, '>')
}

// AppendTextElement appends <name>text</name>, text escaped as Marshal
// escapes character data.
func AppendTextElement(buf []byte, name, text string) []byte {
	buf = AppendStartTag(buf, name)
	buf = appendEscaped(buf, text, false)
	return AppendEndTag(buf, name)
}

// AppendAttrTextElement appends <name attr="value">text</name>, the value
// escaped as Marshal escapes attribute values and the text as it escapes
// character data.
func AppendAttrTextElement(buf []byte, name, attr, value, text string) []byte {
	buf = append(buf, '<')
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = append(buf, attr...)
	buf = append(buf, '=', '"')
	buf = appendEscaped(buf, value, true)
	buf = append(buf, '"', '>')
	buf = appendEscaped(buf, text, false)
	return AppendEndTag(buf, name)
}

// Escape sequences matching encoding/xml's escapeString (the short numeric
// forms, not &quot;/&apos;).
const escFFFD = "�"

// appendEscaped appends s with XML escaping byte-identical to
// encoding/xml's printer: `"'&<>` and tab/CR escape to their short entity
// forms, newlines escape only when escapeNewline is set (attribute values);
// runes outside the XML character range become U+FFFD.
func appendEscaped(buf []byte, s string, escapeNewline bool) []byte {
	// Fast path: plain ASCII without escapable bytes is the overwhelmingly
	// common case for protocol documents.
	clean := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 || c < 0x20 || c == '"' || c == '\'' || c == '&' || c == '<' || c == '>' {
			clean = false
			break
		}
	}
	if clean {
		return append(buf, s...)
	}
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			if !escapeNewline {
				continue
			}
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if !isInCharacterRange(r) || (r == 0xFFFD && width == 1) {
				esc = escFFFD
				break
			}
			continue
		}
		buf = append(buf, s[last:i-width]...)
		buf = append(buf, esc...)
		last = i
	}
	return append(buf, s[last:]...)
}

// isInCharacterRange mirrors encoding/xml's definition of valid XML chars.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// internTable holds the canonical copy of the protocol vocabulary: element
// and attribute names plus the handful of small constant text values the
// JXTA documents repeat in nearly every message (advertisement field names,
// query stages, pipe kinds). The decoder allocates one string per name per
// document; interning removes that for the overwhelmingly common names.
// The table is built once at package init and read-only afterwards, so
// concurrent decoders (parallel experiment sweeps) share it without locks.
var internTable = make(map[string]string, 96)

func init() {
	for _, s := range []string{
		// Advertisement document names.
		"jxta:PA", "jxta:RA", "jxta:RdvAdvertisement",
		"jxta:PipeAdvertisement", "jxta:MIA", "jxta:ResourceAdv",
		// Advertisement fields (element and attribute names).
		"PID", "Name", "name", "Desc", "Addr", "DstPID", "Hop",
		"RdvPeerID", "RdvGroupId", "MSID", "Id", "Type", "Attr", "Value",
		// Discovery query/response documents.
		"disco:Q", "disco:R", "Stage", "Lo", "Hi",
		"initial", "replica", "deliver", "range", "range-deliver",
		// SRDI tuples.
		"srdi:Tuple", "Key", "Pub", "Life", "NA", "NV",
		// Pipe kinds and common query types.
		"JxtaUnicast", "JxtaPropagate",
		"Peer", "Rdv", "Route", "Pipe", "Module", "Resource",
		// Ubiquitous small values.
		"1", "Test",
	} {
		internTable[s] = s
	}
}

// maxInternLen skips the table lookup for texts that cannot be vocabulary.
const maxInternLen = 24

// Intern returns the canonical copy of b when it is protocol vocabulary,
// avoiding a fresh allocation; unknown strings are copied as usual. The
// map lookup with a []byte key compiles without allocating. It is what the
// decoder does to every name and every plain text, so a reader working
// from Strict yields the very strings Unmarshal would.
func Intern(b []byte) string {
	if len(b) <= maxInternLen {
		if s, ok := internTable[string(b)]; ok {
			return s
		}
	}
	return string(b)
}

// Unmarshal decodes a single element tree from data. Whitespace-only
// character data between child elements is discarded, matching how JXTA
// implementations treat pretty-printed advertisements. A leading XML
// prolog, comments and directives are skipped; trailing bytes after the
// root element are ignored (historical behavior).
func Unmarshal(data []byte) (*Element, error) {
	p := parser{data: data}
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, errors.New("document: no element found")
		}
		if p.data[p.pos] != '<' {
			return nil, fmt.Errorf("document: unexpected character %q before root element", p.data[p.pos])
		}
		if p.pos+1 < len(p.data) {
			switch p.data[p.pos+1] {
			case '?':
				if err := p.skipUntil("?>"); err != nil {
					return nil, err
				}
				continue
			case '!':
				if err := p.skipMarkupDecl(); err != nil {
					return nil, err
				}
				continue
			}
		}
		return p.parseElement()
	}
}

// parser is a minimal non-validating XML reader for the JXTA document
// subset. Names (including namespace prefixes) are kept verbatim, which
// matches what the previous decoder reconstructed via its prefix maps for
// every document the protocols exchange.
type parser struct {
	data []byte
	pos  int
	// depth tracks element nesting; maxDepth bounds the recursion so a
	// hostile document cannot overflow the stack. No JXTA document type
	// nests more than a handful of levels.
	depth int
	// slab is a bump arena for decoded Elements: one allocation hands out
	// storage for slabSize nodes, instead of one allocation per element.
	// Decoded documents are transient protocol payloads, so a surviving
	// element pinning its slab is acceptable.
	slab []Element
}

// maxDepth bounds element nesting (defense against crafted inputs).
const maxDepth = 256

const slabSize = 16

func (p *parser) newElement(name string) *Element {
	if len(p.slab) == 0 {
		p.slab = make([]Element, slabSize)
	}
	e := &p.slab[0]
	p.slab = p.slab[1:]
	e.Name = name
	return e
}

func (p *parser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// skipUntil advances past the next occurrence of marker.
func (p *parser) skipUntil(marker string) error {
	idx := bytes.Index(p.data[p.pos:], []byte(marker))
	if idx < 0 {
		return fmt.Errorf("document: unterminated %q section", marker)
	}
	p.pos += idx + len(marker)
	return nil
}

// skipMarkupDecl skips `<!-- ... -->` comments and `<! ... >` directives,
// including DOCTYPE declarations with a bracketed internal subset.
func (p *parser) skipMarkupDecl() error {
	if bytes.HasPrefix(p.data[p.pos:], []byte("<!--")) {
		return p.skipUntil("-->")
	}
	depth := 0
	for i := p.pos; i < len(p.data); i++ {
		switch p.data[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				p.pos = i + 1
				return nil
			}
		}
	}
	return errors.New("document: unterminated markup declaration")
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	for p.pos < len(p.data) {
		switch c := p.data[p.pos]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
			c == '>' || c == '/' || c == '=':
			goto done
		case c == '<':
			return "", errors.New("document: '<' in name")
		default:
			p.pos++
		}
	}
done:
	if p.pos == start {
		return "", errors.New("document: empty name")
	}
	return Intern(p.data[start:p.pos]), nil
}

// parseElement decodes one element; p.pos must be at its '<'.
func (p *parser) parseElement() (*Element, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxDepth {
		return nil, errors.New("document: element nesting too deep")
	}
	p.pos++ // consume '<'
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	e := p.newElement(name)
	// Attributes.
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return nil, fmt.Errorf("document: unterminated <%s>", name)
		}
		switch p.data[p.pos] {
		case '>':
			p.pos++
			return p.parseContent(e)
		case '/':
			if p.pos+1 >= len(p.data) || p.data[p.pos+1] != '>' {
				return nil, fmt.Errorf("document: malformed empty-element tag in <%s>", name)
			}
			p.pos += 2
			return e, nil
		}
		attrName, err := p.parseName()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '=' {
			return nil, fmt.Errorf("document: attribute %s of <%s> missing '='", attrName, name)
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.data) || (p.data[p.pos] != '"' && p.data[p.pos] != '\'') {
			return nil, fmt.Errorf("document: attribute %s of <%s> missing quote", attrName, name)
		}
		quote := p.data[p.pos]
		p.pos++
		valStart := p.pos
		for p.pos < len(p.data) && p.data[p.pos] != quote {
			p.pos++
		}
		if p.pos >= len(p.data) {
			return nil, fmt.Errorf("document: unterminated attribute value in <%s>", name)
		}
		val, err := unescape(p.data[valStart:p.pos])
		if err != nil {
			return nil, err
		}
		p.pos++
		e.Attrs = append(e.Attrs, Attr{Name: attrName, Value: val})
	}
}

// parseContent decodes the children/text of e until its end tag.
func (p *parser) parseContent(e *Element) (*Element, error) {
	text := ""
	for {
		runStart := p.pos
		for p.pos < len(p.data) && p.data[p.pos] != '<' {
			p.pos++
		}
		if p.pos >= len(p.data) {
			return nil, fmt.Errorf("document: unterminated <%s>", e.Name)
		}
		if p.pos > runStart {
			run, err := unescape(p.data[runStart:p.pos])
			if err != nil {
				return nil, err
			}
			text += run
		}
		// p.pos is at '<'.
		if p.pos+1 < len(p.data) {
			switch p.data[p.pos+1] {
			case '/':
				p.pos += 2
				end, err := p.parseName()
				if err != nil {
					return nil, err
				}
				if end != e.Name {
					return nil, fmt.Errorf("document: </%s> closes <%s>", end, e.Name)
				}
				p.skipSpace()
				if p.pos >= len(p.data) || p.data[p.pos] != '>' {
					return nil, fmt.Errorf("document: malformed </%s>", end)
				}
				p.pos++
				if len(e.Children) == 0 {
					e.Text = text
				} else if strings.TrimSpace(text) != "" {
					return nil, fmt.Errorf("%w: <%s>", ErrMixedContent, e.Name)
				}
				return e, nil
			case '!':
				if bytes.HasPrefix(p.data[p.pos:], []byte("<![CDATA[")) {
					p.pos += len("<![CDATA[")
					idx := bytes.Index(p.data[p.pos:], []byte("]]>"))
					if idx < 0 {
						return nil, errors.New("document: unterminated CDATA")
					}
					text += normalizeCRLF(p.data[p.pos : p.pos+idx])
					p.pos += idx + len("]]>")
					continue
				}
				if err := p.skipMarkupDecl(); err != nil {
					return nil, err
				}
				continue
			case '?':
				if err := p.skipUntil("?>"); err != nil {
					return nil, err
				}
				continue
			}
		}
		child, err := p.parseElement()
		if err != nil {
			return nil, err
		}
		e.Children = append(e.Children, child)
	}
}

// unescape resolves entity and character references in raw character data
// and applies XML line-ending normalization (CRLF and bare CR become LF,
// matching encoding/xml; a literal CR can only be produced via &#xD;,
// which expands after normalization).
func unescape(raw []byte) (string, error) {
	special := -1
	for i := 0; i < len(raw); i++ {
		if raw[i] == '&' || raw[i] == '\r' {
			special = i
			break
		}
	}
	if special < 0 {
		return Intern(raw), nil
	}
	out := make([]byte, 0, len(raw))
	out = append(out, raw[:special]...)
	for i := special; i < len(raw); {
		c := raw[i]
		if c == '\r' {
			out = append(out, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
			continue
		}
		if c != '&' {
			out = append(out, c)
			i++
			continue
		}
		semi := -1
		for j := i + 1; j < len(raw); j++ {
			if raw[j] == ';' {
				semi = j
				break
			}
		}
		if semi < 0 {
			return "", errors.New("document: unterminated entity reference")
		}
		ent := string(raw[i+1 : semi])
		switch ent {
		case "amp":
			out = append(out, '&')
		case "lt":
			out = append(out, '<')
		case "gt":
			out = append(out, '>')
		case "quot":
			out = append(out, '"')
		case "apos":
			out = append(out, '\'')
		default:
			if len(ent) < 2 || ent[0] != '#' {
				return "", fmt.Errorf("document: unknown entity &%s;", ent)
			}
			var r rune
			var ok bool
			if ent[1] == 'x' || ent[1] == 'X' {
				r, ok = parseRune(ent[2:], 16)
			} else {
				r, ok = parseRune(ent[1:], 10)
			}
			if !ok || !isInCharacterRange(r) {
				return "", fmt.Errorf("document: invalid character reference &%s;", ent)
			}
			out = utf8.AppendRune(out, r)
		}
		i = semi + 1
	}
	return string(out), nil
}

// normalizeCRLF applies XML line-ending normalization (CRLF and bare CR
// become LF) to raw bytes that bypass unescape, i.e. CDATA content.
func normalizeCRLF(raw []byte) string {
	if bytes.IndexByte(raw, '\r') < 0 {
		return string(raw)
	}
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		if raw[i] == '\r' {
			out = append(out, '\n')
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
			continue
		}
		out = append(out, raw[i])
	}
	return string(out)
}

// parseRune parses a character-reference number in the given base.
func parseRune(s string, base rune) (rune, bool) {
	if s == "" {
		return 0, false
	}
	var n rune
	for _, c := range s {
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = c - '0'
		case base == 16 && c >= 'a' && c <= 'f':
			d = c - 'a' + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = c - 'A' + 10
		default:
			return 0, false
		}
		n = n*base + d
		if n > utf8.MaxRune {
			return 0, false
		}
	}
	return n, true
}

// String renders the XML form, or a diagnostic on error.
func (e *Element) String() string {
	b, err := e.Marshal()
	if err != nil {
		return "<!-- " + err.Error() + " -->"
	}
	return string(b)
}
