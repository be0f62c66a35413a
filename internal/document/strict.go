package document

import (
	"bytes"
	"errors"
	"slices"
	"unicode/utf8"
)

// Strict is the one XML reader a node has. It reads a document in place in
// the strict form the Append writers (and Marshal) emit: every tag is
// exactly <name>, </name> or, on an element holding only text,
// <name attr="value"> with the one attribute AppendAttrTextElement writes;
// nothing — not even whitespace — stands between tags; text appears only in
// elements without children and holds no CR, no other control character
// but tab and newline, and nothing that is not UTF-8 of an XML character;
// and the input ends with the root's end tag. A text or value may hold the
// five predefined entities and character references, which the writers use
// for escapes.
//
// Input in any other form — a prolog, whitespace or comments between tags,
// children out of the writer's order, a literal CR, invalid UTF-8 — is
// malformed: the first byte that departs from the form makes that call and
// every later one fail, and the reader built on Strict reports
// ErrMalformed. Unmarshal is the reference Strict is held to: on input
// Strict accepts, Unmarshal builds the tree with exactly the names,
// attributes and texts Strict reported (Intern turns a text into the
// decoder's string), and Marshal writes those texts back unchanged.
// Returned slices alias the input, or the reader's own buffer for a text
// that held a reference.
//
//	r := document.Strict{Rest: data}
//	r.Open("disco:Q")
//	typ := r.Text("Type")
//	...
//	r.Close("disco:Q")
//	if !r.Done() { return document.ErrMalformed }
type Strict struct {
	// Rest is the input not consumed yet.
	Rest []byte
	// scratch receives, unescaped, each text or value that holds a
	// reference; what Text returns for it is a view of scratch. It is only
	// appended to and grows geometrically, so earlier views stay valid and
	// a document's escapes cost amortised linear time.
	scratch []byte
	bad     bool
}

// ErrMalformed reports input that is not in the strict form.
var ErrMalformed = errors.New("document: not in the strict form")

// strictDepth bounds how deep Element follows nesting; advertisements nest
// two levels.
const strictDepth = 8

// lit consumes want from the front of the input.
func (s *Strict) lit(want string) {
	if s.bad || len(s.Rest) < len(want) || string(s.Rest[:len(want)]) != want {
		s.bad = true
		return
	}
	s.Rest = s.Rest[len(want):]
}

// tag consumes lead+name+">" from the front of the input.
func (s *Strict) tag(lead, name string) {
	n := len(lead) + len(name)
	if s.bad || len(s.Rest) <= n || string(s.Rest[:len(lead)]) != lead ||
		string(s.Rest[len(lead):n]) != name || s.Rest[n] != '>' {
		s.bad = true
		return
	}
	s.Rest = s.Rest[n+1:]
}

// Open consumes the start tag <name>.
func (s *Strict) Open(name string) { s.tag("<", name) }

// Close consumes the end tag </name>.
func (s *Strict) Close(name string) { s.tag("</", name) }

// At reports whether the next tag is the start tag <name>.
func (s *Strict) At(name string) bool {
	probe := *s
	probe.Open(name)
	return !probe.bad
}

// More reports whether a start tag comes next rather than an end tag: the
// loop condition for reading a row of children.
func (s *Strict) More() bool {
	return !s.bad && len(s.Rest) >= 2 && s.Rest[0] == '<' && s.Rest[1] != '/'
}

// Text consumes <name>text</name> and returns the text, unescaped.
func (s *Strict) Text(name string) []byte {
	s.Open(name)
	text := s.text('<')
	s.Close(name)
	if s.bad {
		return nil
	}
	return text
}

// AttrText consumes <name attr="value">text</name> and returns the value
// and the text, unescaped.
func (s *Strict) AttrText(name, attr string) (value, text []byte) {
	s.lit("<")
	s.lit(name)
	s.lit(" ")
	s.lit(attr)
	s.lit(`="`)
	value = s.text('"')
	s.lit(`">`)
	text = s.text('<')
	s.Close(name)
	if s.bad {
		return nil, nil
	}
	return value, text
}

// text consumes character data up to stop and returns it unescaped: a view
// of the input, or of scratch when it holds a reference. Printable ASCII,
// nearly every text, is read here; anything else goes to escaped.
func (s *Strict) text(stop byte) []byte {
	for i, c := range s.Rest {
		if c == stop {
			raw := s.Rest[:i]
			s.Rest = s.Rest[i:]
			return raw
		}
		if c < ' ' || c >= utf8.RuneSelf || c == '&' || c == '<' {
			return s.escaped(stop)
		}
	}
	s.bad = true
	return nil
}

// escaped is text for character data that holds a reference or a byte
// that is not printable ASCII.
func (s *Strict) escaped(stop byte) []byte {
	raw, refs := s.chars(stop)
	if !refs {
		return raw
	}
	start := len(s.scratch)
	s.scratch = slices.Grow(s.scratch, len(raw)) // unescaped, raw is never longer
	s.scratch, _ = appendUnescaped(s.scratch, raw)
	return s.scratch[start:len(s.scratch):len(s.scratch)]
}

// chars consumes character data up to stop ('<' for a text, '"' for an
// attribute value) and returns it raw, with whether it holds a reference.
// It takes only what the writers leave as it is or write themselves: XML
// characters in UTF-8 other than CR and the control characters (tab and
// newline excepted), and references the decoder resolves.
func (s *Strict) chars(stop byte) (raw []byte, refs bool) {
	for i := 0; i < len(s.Rest); i++ {
		switch c := s.Rest[i]; {
		case c == stop:
			raw, s.Rest = s.Rest[:i], s.Rest[i:]
			return raw, refs
		case c == '&':
			if _, n := reference(s.Rest[i:]); n == 0 {
				s.bad = true
				return nil, false
			}
			refs = true
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(s.Rest[i:])
			if r == utf8.RuneError && n == 1 || !isInCharacterRange(r) {
				s.bad = true
				return nil, false
			}
			i += n - 1
		case c == '<' || c < ' ' && c != '\t' && c != '\n':
			s.bad = true
			return nil, false
		}
	}
	s.bad = true // stop never comes
	return nil, false
}

// name consumes a tag's or an attribute's name, up to the '>', ' ' or '='
// that ends it. A name the decoder would read differently (an empty one, a
// declaration's, one holding a tab or a slash) is not canonical.
func (s *Strict) name() []byte {
	for i, c := range s.Rest {
		switch c {
		case '>', ' ', '=':
			if i == 0 || s.Rest[0] == '!' || s.Rest[0] == '?' {
				s.bad = true
				return nil
			}
			name := s.Rest[:i]
			s.Rest = s.Rest[i:]
			return name
		case '\t', '\n', '\r', '/', '<':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// Element consumes one whole element, children included, and returns its
// bytes: the unit a reader passes on undecoded (a discovery response hands
// each advertisement to the cache this way). It checks the form, references
// included, but unescapes nothing.
func (s *Strict) Element() []byte {
	start := s.Rest
	var open [strictDepth][]byte
	depth := 0
	for !s.bad {
		if len(s.Rest) < 2 || s.Rest[0] != '<' {
			break
		}
		if s.Rest[1] == '/' {
			s.Rest = s.Rest[2:]
			if depth == 0 || string(s.name()) != string(open[depth-1]) {
				break
			}
			if s.lit(">"); s.bad {
				break
			}
			if depth--; depth == 0 {
				return start[:len(start)-len(s.Rest)]
			}
			continue // a sibling or the parent's end tag must follow at once
		}
		if depth == strictDepth {
			break
		}
		s.Rest = s.Rest[1:]
		if open[depth] = s.name(); s.bad {
			break
		}
		depth++
		attr := len(s.Rest) > 0 && s.Rest[0] == ' '
		if attr {
			s.lit(" ")
			s.name()
			s.lit(`="`)
			s.chars('"')
			s.lit(`"`)
		}
		s.lit(">")
		// Text or an attribute makes the element a leaf: its own end tag
		// must come next.
		if text, _ := s.chars('<'); (len(text) > 0 || attr) && (len(s.Rest) < 2 || s.Rest[1] != '/') {
			break
		}
	}
	s.bad = true
	return nil
}

// Done reports whether the whole input was consumed, all of it in the strict
// form.
func (s *Strict) Done() bool { return !s.bad && len(s.Rest) == 0 }

// reference decodes the entity or character reference at the front of raw,
// which starts with '&': the rune it stands for and its length, or n == 0
// when it is no reference the decoder resolves. The scan stops at the first
// byte no reference holds, so it never runs past the reference.
func reference(raw []byte) (r rune, n int) {
	end := 1
	for end < len(raw) && (raw[end] == '#' || raw[end]|0x20 >= 'a' && raw[end]|0x20 <= 'z' || raw[end] >= '0' && raw[end] <= '9') {
		end++
	}
	if end == len(raw) || raw[end] != ';' {
		return 0, 0
	}
	switch ent := raw[1:end]; string(ent) {
	case "amp":
		r = '&'
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "quot":
		r = '"'
	case "apos":
		r = '\''
	default:
		ok := false
		if len(ent) >= 2 && ent[0] == '#' && (ent[1] == 'x' || ent[1] == 'X') {
			r, ok = parseRune(ent[2:], 16)
		} else if len(ent) >= 2 && ent[0] == '#' {
			r, ok = parseRune(ent[1:], 10)
		}
		if !ok || !isInCharacterRange(r) {
			return 0, 0
		}
	}
	return r, end + 1
}

// appendUnescaped appends raw to dst with every reference resolved. ok is
// false at the first reference that does not resolve. The result is never
// longer than raw.
func appendUnescaped(dst, raw []byte) (out []byte, ok bool) {
	for {
		i := bytes.IndexByte(raw, '&')
		if i < 0 {
			return append(dst, raw...), true
		}
		dst = append(dst, raw[:i]...)
		r, n := reference(raw[i:])
		if n == 0 {
			return dst, false
		}
		dst = utf8.AppendRune(dst, r)
		raw = raw[i+n:]
	}
}
