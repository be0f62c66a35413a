package document

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// awkwardTexts are the values a writer must escape exactly as Marshal does:
// every escapable byte, control bytes, invalid UTF-8, nothing, a lot.
var awkwardTexts = []string{
	"", "Test", "a b", "\"'&<>", "tab\there", "line\nbreak", "cr\rhere", "crlf\r\n",
	"\x00\x01\x1f", "caf\xc3\xa9", "bad\xff\xfeutf8", "\xef\xbf\xbd", "\xed\xa0\x80", "]]>", "&amp;",
	strings.Repeat("x", 10<<10), strings.Repeat("<&>", 3<<10),
}

// TestAppendWritersMatchMarshal: the exported writers are Marshal's own, so
// a flat record appended by hand is byte for byte the tree's encoding.
func TestAppendWritersMatchMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	texts := append([]string(nil), awkwardTexts...)
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		texts = append(texts, string(b))
	}
	for _, text := range texts {
		want, err := NewElement("r:Root").AppendText("Leaf", text).AppendText("Other", text).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got := AppendStartTag([]byte("prefix"), "r:Root")
		got = AppendTextElement(got, "Leaf", text)
		got = AppendTextElement(got, "Other", text)
		got = AppendEndTag(got, "r:Root")
		if string(got) != "prefix"+string(want) {
			t.Fatalf("text %q:\n appended %q\n marshal  %q", text, got[len("prefix"):], want)
		}
	}
}

// checkStrict holds Strict to its contract on one input: when it accepts
// the input as one canonical element, Unmarshal accepts it too and builds
// the tree whose names, attributes and texts Strict reports, and Marshal
// writes that tree back with every text unchanged. It returns whether
// Strict accepted.
func checkStrict(t *testing.T, data []byte) bool {
	t.Helper()
	probe := Strict{Rest: data}
	el := probe.Element()
	if !probe.Done() {
		if el != nil && !bytes.HasPrefix(data, el) {
			t.Fatalf("Element returned bytes that are not a prefix of %q", data)
		}
		return false
	}
	if !bytes.Equal(el, data) {
		t.Fatalf("Element consumed %q but returned %q", data, el)
	}
	tree, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Strict accepted %q, Unmarshal rejects it: %v", data, err)
	}
	r := Strict{Rest: data}
	var walk func(e *Element)
	walk = func(e *Element) {
		switch {
		case len(e.Attrs) > 1 || len(e.Attrs) == 1 && len(e.Children) > 0:
			t.Fatalf("Strict accepted %q, whose <%s> has attributes beyond a leaf's one", data, e.Name)
		case len(e.Attrs) == 1:
			value, text := r.AttrText(e.Name, e.Attrs[0].Name)
			if Intern(value) != e.Attrs[0].Value || Intern(text) != e.Text {
				t.Fatalf("%q: <%s> reads %q, %q; the tree holds %q, %q", data, e.Name, value, text, e.Attrs[0].Value, e.Text)
			}
			return
		case len(e.Children) == 0:
			if !r.At(e.Name) {
				t.Fatalf("%q: At(%q) is false at %q", data, e.Name, r.Rest)
			}
			if text := r.Text(e.Name); Intern(text) != e.Text {
				t.Fatalf("%q: <%s> reads %q, the tree holds %q", data, e.Name, text, e.Text)
			}
			return
		}
		r.Open(e.Name)
		for _, c := range e.Children {
			walk(c)
		}
		r.Close(e.Name)
	}
	walk(tree)
	if !r.Done() {
		t.Fatalf("%q: reading along the tree stopped at %q", data, r.Rest)
	}
	enc, err := tree.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if back, err := Unmarshal(enc); err != nil || !back.Equal(tree) {
		t.Fatalf("%q: Marshal changed the tree: %q, %v", data, enc, err)
	}
	return true
}

// randomTree builds a tree the way protocol documents look: text leaves,
// some with the one attribute a writer puts on a leaf.
func randomTree(rng *rand.Rand, depth int) *Element {
	names := []string{"disco:Q", "Type", "Attr", "jxta:PA", "a", "x-y.z", "Name"}
	e := NewElement(names[rng.Intn(len(names))])
	if depth > 0 && rng.Intn(3) > 0 {
		for i := rng.Intn(4); i >= 0; i-- {
			e.Append(randomTree(rng, depth-1))
		}
		return e
	}
	texts := []string{"", "Test", "urn:jxta:uuid-00-peer", "a b\nc", "-42", "x>y", "tab\there", "a&b", `"'&<>`, "cr\r\nhere", "\xff\x01"}
	if rng.Intn(4) == 0 {
		e.WithAttr(names[rng.Intn(len(names))], texts[rng.Intn(len(texts))])
	}
	return e.WithText(texts[rng.Intn(len(texts))])
}

func TestStrictAgreesWithUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	foreign := []string{" ", "\n", "&amp;", "&", "&#x41;", "&bogus;", "&#xD800;", "\r", "<!-- c -->", "<![CDATA[x]]>", "<a/>", " a=\"1\"", " a='1'", "\"", "<?pi?>", "</a>", "<a>", "/", ">"}
	accepted, rejected := 0, 0
	count := func(ok bool) {
		if ok {
			accepted++
		} else {
			rejected++
		}
	}
	for i := 0; i < 300; i++ {
		tree := randomTree(rng, 3)
		data, err := tree.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !checkStrict(t, data) {
			t.Fatalf("canonical %q rejected", data)
		}
		count(true)
		// The same document, formatted the way a foreign peer might, cut
		// short, or damaged.
		for j := 0; j < 20; j++ {
			at := rng.Intn(len(data) + 1)
			ins := foreign[rng.Intn(len(foreign))]
			count(checkStrict(t, []byte(string(data[:at])+ins+string(data[at:]))))
		}
		for cut := 0; cut < len(data); cut++ {
			if checkStrict(t, data[:cut]) {
				t.Fatalf("truncated %q accepted", data[:cut])
			}
		}
		count(checkStrict(t, append(append([]byte(nil), data...), "trailing"...)))
	}
	// Deeper than Strict follows, and the decoder's own corner cases.
	deep := strings.Repeat("<n>", strictDepth+1) + strings.Repeat("</n>", strictDepth+1)
	for _, s := range []string{deep, "<a><a>x</a></a>", "<a></a>", "<a>x</b>", "<a><b>x</b>y</a>", "<a>y<b>x</b></a>", "<!a>x</!a>", "<>x</>",
		`<a b="c"><d>x</d></a>`, `<a b="c" e="f">x</a>`, `<a b="<">x</a>`, `<a b="&#0000000065;">&#X42;&lt;</a>`, "<a>&#x110000;</a>", "<a>&amp</a>"} {
		count(checkStrict(t, []byte(s)))
	}
	if accepted < 100 || rejected < 100 {
		t.Fatalf("accepted %d, rejected %d: one side is barely exercised", accepted, rejected)
	}
}

// TestStrictFailureIsSticky: after the first departure from the form every
// call fails, so a reader checks once, at the end.
func TestStrictFailureIsSticky(t *testing.T) {
	r := Strict{Rest: []byte("<r><A>1</A><B>2</B></r>")}
	r.Open("r")
	if got := r.Text("B"); got != nil { // A comes first
		t.Fatalf("Text of the wrong name returned %q", got)
	}
	if got := r.Text("A"); got != nil || r.At("A") || r.Element() != nil || r.Done() {
		t.Fatal("Strict recovered after a failure")
	}
}

// FuzzStrict: whatever the bytes, Strict never panics and never accepts a
// document Unmarshal reads differently.
func FuzzStrict(f *testing.F) {
	for _, seed := range []string{
		"<jxta:PA><PID>urn:jxta:peer-1</PID><Name>Test</Name></jxta:PA>",
		"<disco:R><jxta:PA><PID>p</PID></jxta:PA><jxta:PA><PID>q</PID></jxta:PA></disco:R>",
		"<a>&amp;</a>", "<a b=\"c\">d</a>", "<a>x<b/></a>", "<a> <b>x</b></a>", "<a><a>x</a></a>", "<a></b>",
		"<a>&lt;&gt;&quot;&apos;&#65;&#x42;&#X43;</a>", "<a>&#xD;&#x9;&#0;&#xFFFE;&bogus;&#x41</a>",
		`<jxta:ResourceAdv><Id>r</Id><Name>n</Name><Attr name="RAM">4096</Attr><Attr name="a&amp;b&#xA;">&#34;d&#34;</Attr></jxta:ResourceAdv>`,
		`<a b="c"><d>x</d></a>`, `<a b='c'>d</a>`, `<a b="c" d="e">f</a>`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkStrict(t, data) })
}

// TestStrictUnescapesIntoScratch: a text without a reference is a view of
// the input; a text or value holding one is unescaped into the reader's
// scratch, after whatever earlier texts left there, and costs nothing while
// the scratch has room.
func TestStrictUnescapesIntoScratch(t *testing.T) {
	data := []byte(`<r><A>plain</A><B>a&amp;b&#x9;&#65;</B><Attr name="k&lt;">v&#34;</Attr></r>`)
	room := make([]byte, 0, 64)
	var a, b, k, v []byte
	read := func() {
		r := Strict{Rest: data, scratch: room}
		r.Open("r")
		a, b = r.Text("A"), r.Text("B")
		k, v = r.AttrText("Attr", "name")
		r.Close("r")
		if !r.Done() {
			t.Fatalf("stopped at %q", r.Rest)
		}
	}
	if allocs := testing.AllocsPerRun(10, read); allocs != 0 {
		t.Fatalf("reading costs %.0f allocations, want 0", allocs)
	}
	if string(a) != "plain" || string(b) != "a&b\tA" || string(k) != "k<" || string(v) != `v"` {
		t.Fatalf("read %q, %q, %q, %q", a, b, k, v)
	}
	if &a[0] != &data[len("<r><A>")] {
		t.Fatal("a plain text is not a view of the input")
	}
	if scratch := room[:len(b)+len(k)+len(v)]; &b[0] != &scratch[0] || &k[0] != &scratch[len(b)] || &v[0] != &scratch[len(b)+len(k)] {
		t.Fatal("escaped texts are not consecutive views of the scratch")
	}
}
