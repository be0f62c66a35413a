package advertisement

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"jxta/internal/document"
	"jxta/internal/ids"
)

// The tree decoders DecodeXML replaced: the reference it is held to on
// every input it accepts. They read an advertisement from the document
// tree by child name, in any order and any formatting Unmarshal takes.

func decodeTree(data []byte) (Advertisement, error) {
	e, err := document.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	switch e.Name {
	case "jxta:PA":
		return decodePeer(e)
	case "jxta:RdvAdvertisement":
		return decodeRdv(e)
	case "jxta:ResourceAdv":
		return decodeResource(e)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownType, e.Name)
}

func parseID(e *document.Element, child string) (ids.ID, error) {
	text := e.ChildText(child)
	if text == "" {
		return ids.Nil, fmt.Errorf("advertisement: <%s> missing <%s>", e.Name, child)
	}
	return ids.Parse(text)
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

// FuzzDecodeXML holds the strict reader to the tree decoders, one way: an
// input DecodeXML accepts, the tree reads too, to the same advertisement
// field for field, and the advertisement keeps nothing of the input. An
// input only the tree accepts (another formatting of the same document) is
// an error. This is the field-level check for every reader built on
// DecodeXML (the advertisement store, a discovery response); their own
// fuzzers check what they add around it. RdvPeerIDBytes, which reads only
// the head of a rendezvous advertisement, is held to DecodeXML: for every
// input DecodeXML accepts as an *Rdv, it returns that advertisement's PeerID.
func FuzzDecodeXML(f *testing.F) {
	for i, s := range [][4]string{
		{"Test", "rennes", "a peer", "sim://rennes/1"},
		{`"'&<>`, "tab\there", "line\nbreak", "cr\rhere\r\n"},
		{"caf\xc3\xa9", "&amp;", "]]>", " lead trail "},
	} {
		for _, adv := range oneOfEach(s[0], s[1], s[2], s[3], uint8(i+1)) {
			enc, _ := AppendXML(nil, adv)
			f.Add(enc)
			// Three forms only the tree reads: line breaks between tags, a
			// prolog, and whitespace after the root.
			f.Add(bytes.ReplaceAll(enc, []byte("><"), []byte(">\n<")))
			f.Add(append([]byte(`<?xml version="1.0"?>`), enc...))
			f.Add(append(bytes.Clone(enc), '\n'))
		}
	}
	pid := ids.FromName(ids.KindPeer, "p").String()
	for _, s := range []string{
		`<?xml version="1.0"?><jxta:PA><PID>` + pid + `</PID><Name>n</Name></jxta:PA>`,
		`<jxta:PA><Name>n</Name><PID>` + pid + `</PID></jxta:PA>`,
		`<jxta:PA><PID>` + pid + `</PID><Name>a&#xD;b</Name><!-- c --></jxta:PA>`,
		`<jxta:ResourceAdv><Id>` + pid + `</Id><Name>n</Name><Attr name="&#65;">&lt;</Attr><Attr>v</Attr></jxta:ResourceAdv>`,
		`<jxta:PA><PID>junk</PID><Name>n</Name><Addr>` + pid + `</Addr></jxta:PA>`,
		"<jxta:Mystery><A>x</A></jxta:Mystery>", "<jxta:PA", "",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeXML(data)
		if err != nil {
			return
		}
		want, err := decodeTree(data)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeXML(%q)\n got  %+v\n tree %+v, %v", data, got, want, err)
		}
		if rdv, ok := got.(*Rdv); ok {
			if id, ok := RdvPeerIDBytes(data); !ok || id != rdv.PeerID {
				t.Fatalf("RdvPeerIDBytes(%q) = %v, %v; DecodeXML read %v", data, id, ok, rdv.PeerID)
			}
		}
		before, _ := EncodeXML(got)
		for i := range data {
			data[i] = 0xDB
		}
		if after, _ := EncodeXML(got); !bytes.Equal(after, before) {
			t.Fatalf("advertisement changed from %q to %q when the input was overwritten", before, after)
		}
	})
}

// TestDecodeXMLLinearInEscapes: the escaped texts of one advertisement are
// unescaped into a buffer that grows geometrically, so a Resource with
// eight times as many escaped attributes costs about eight times the bytes
// to read. A buffer regrown to the exact size each time would re-copy
// everything unescaped so far for every attribute: sixty-four times.
func TestDecodeXMLLinearInEscapes(t *testing.T) {
	cost := func(n int) uint64 {
		res := &Resource{ResID: ids.FromName(ids.KindAdv, "r"), Name: "r"}
		for i := range n {
			s := strings.Repeat("&", i%4+1) + strconv.Itoa(i)
			res.Attrs = append(res.Attrs, IndexField{Attr: s, Value: s})
		}
		enc, err := EncodeXML(res)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		back, err := DecodeXML(enc)
		runtime.ReadMemStats(&after)
		if err != nil || !reflect.DeepEqual(back, res) {
			t.Fatalf("%d escaped attributes read as %v", n, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := cost(500), cost(4000)
	if large > 16*small {
		t.Fatalf("reading 500 escaped attributes costs %d bytes, 4000 cost %d: more than linear", small, large)
	}
}
