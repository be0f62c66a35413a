package document

// Strict reads a document in place when it is in the strict canonical form
// the Append writers (and Marshal, for a tree without attributes) emit:
// every tag is exactly <name> or </name>, nothing — not even whitespace —
// stands between tags, text appears only in elements without children and
// holds no '&' and no CR (so the text is the bytes as they stand), and the
// input ends with the root's end tag.
//
// It is a recogniser for the common case, not a second parser. The first
// byte that departs from the form makes that call and every later one fail;
// the caller then hands the whole input to Unmarshal and takes its answer.
// On input Strict accepts, Unmarshal builds the tree with exactly the names
// and texts Strict reported (Intern turns a text into the decoder's string),
// which is what lets a reader skip the tree. Returned slices alias the
// input.
//
//	r := document.Strict{Rest: data}
//	r.Open("disco:Q")
//	typ := r.Text("Type")
//	...
//	r.Close("disco:Q")
//	if !r.Done() { /* document.Unmarshal(data) */ }
type Strict struct {
	// Rest is the input not consumed yet.
	Rest []byte
	bad  bool
}

// strictDepth bounds how deep Element follows nesting; advertisements nest
// two levels.
const strictDepth = 8

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

// Text consumes <name>text</name> and returns the text.
func (s *Strict) Text(name string) []byte {
	s.Open(name)
	text := s.text()
	s.Close(name)
	if s.bad {
		return nil
	}
	return text
}

// text consumes character data up to the next tag.
func (s *Strict) text() []byte {
	for i, c := range s.Rest {
		switch c {
		case '<':
			text := s.Rest[:i]
			s.Rest = s.Rest[i:]
			return text
		case '&', '\r':
			s.bad = true
			return nil
		}
	}
	s.bad = true // no tag follows
	return nil
}

// name consumes a tag's name and its '>' from the front of the input, which
// stands just past the tag's lead. A name the decoder would read differently
// (attributes, an empty-element tag, a declaration) is not canonical.
func (s *Strict) name() []byte {
	for i, c := range s.Rest {
		switch c {
		case '>':
			if i == 0 || s.Rest[0] == '!' || s.Rest[0] == '?' {
				s.bad = true
				return nil
			}
			name := s.Rest[:i]
			s.Rest = s.Rest[i+1:]
			return name
		case ' ', '\t', '\n', '\r', '/', '=', '<':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// Element consumes one whole element, children included, and returns its
// bytes: the unit a reader passes on undecoded (advstore.InternBytes takes
// an advertisement this way).
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
		// Text makes the element a leaf: its own end tag must come next.
		if len(s.text()) > 0 && (len(s.Rest) < 2 || s.Rest[1] != '/') {
			break
		}
	}
	s.bad = true
	return nil
}

// Done reports whether the whole input was consumed and in canonical form.
func (s *Strict) Done() bool { return !s.bad && len(s.Rest) == 0 }
