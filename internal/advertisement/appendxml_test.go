package advertisement

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"jxta/internal/ids"
)

// oneOfEach builds one advertisement of each type with every field filled
// from the given strings; shape picks list lengths, empty optional fields and
// nil IDs, so the fuzzer reaches every branch of the writers.
func oneOfEach(a, b, c, d string, shape uint8) []Advertisement {
	id := func(kind ids.Kind, s string) ids.ID {
		if shape&0x80 != 0 && s == "" {
			return ids.Nil
		}
		return ids.FromName(kind, s)
	}
	n := int(shape & 3)
	var addrs []string
	var attrs []IndexField
	for i, s := range []string{a, b, c, d}[:n] {
		addrs = append(addrs, s)
		attrs = append(attrs, IndexField{Attr: s, Value: []string{d, c, b, a}[i]})
	}
	desc := c
	if shape&4 != 0 {
		desc = ""
	}
	return []Advertisement{
		&Peer{PeerID: id(ids.KindPeer, a), Name: b, Desc: desc, Addresses: addrs},
		&Rdv{PeerID: id(ids.KindPeer, a), GroupID: id(ids.KindGroup, b), Name: c, Address: d},
		&Resource{ResID: id(ids.KindAdv, b), Name: a, Attrs: attrs},
	}
}

// FuzzAppendXML holds the tree-free writer to the document tree: for every
// type and any field values — escapes, CR/LF/tab, invalid UTF-8, runes
// outside the XML range — AppendXML writes exactly Document().Marshal()'s
// bytes after whatever buf held, and EncodeXML returns them in a slice whose
// capacity is its length. For any values XML can carry, DecodeXML reads
// the bytes back and Decode reads the tree back, both field for field.
func FuzzAppendXML(f *testing.F) {
	f.Add("Test", "rennes", "a peer", "sim://rennes/1", uint8(3))
	f.Add(`"'&<>`, "tab\there", "line\nbreak", "cr\rhere\r\n", uint8(2))
	f.Add("\x00\x01\x1f", "caf\xc3\xa9", "bad\xff\xfeutf8", "\xef\xbf\xbd￾\U0010FFFF", uint8(1))
	f.Add("", "", "", "", uint8(0x87))
	f.Add("]]>", "&amp;", "<!-- x -->", " lead trail ", uint8(6))
	f.Fuzz(func(t *testing.T, a, b, c, d string, shape uint8) {
		for _, adv := range oneOfEach(a, b, c, d, shape) {
			want, err := adv.Document().Marshal()
			if err != nil {
				t.Fatalf("%T: Marshal: %v", adv, err)
			}
			got, err := AppendXML([]byte("prefix"), adv)
			if err != nil {
				t.Fatalf("%T: AppendXML: %v", adv, err)
			}
			if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
				t.Fatalf("%T: AppendXML wrote\n%q\nthe tree marshals\n%q", adv, got, want)
			}
			enc, err := EncodeXML(adv)
			if err != nil || !bytes.Equal(enc, want) || len(enc) != cap(enc) {
				t.Fatalf("%T: EncodeXML = %q (len %d, cap %d), %v; want %q", adv, enc, len(enc), cap(enc), err, want)
			}
		}
		for _, adv := range oneOfEach(xmlText(a), xmlText(b), xmlText(c), xmlText(d), shape) {
			enc, _ := AppendXML(nil, adv)
			if back, err := DecodeXML(enc); err != nil || !reflect.DeepEqual(back, adv) {
				t.Fatalf("%T: DecodeXML(%q) = %+v, %v; want %+v", adv, enc, back, err, adv)
			}
			if back, err := Decode(adv.Document()); err != nil || !reflect.DeepEqual(back, adv) {
				t.Fatalf("%T: Decode(Document()) = %+v, %v; want %+v", adv, back, err, adv)
			}
		}
	})
}

// xmlText is s as XML carries it: every byte or rune outside XML's
// character range replaced by U+FFFD, as the writers replace it.
func xmlText(s string) string {
	return strings.Map(func(r rune) rune {
		if r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF {
			return r
		}
		return utf8.RuneError
	}, s)
}

// TestAppendXMLUnknownType: a value of a type this package does not define
// has no encoding.
func TestAppendXMLUnknownType(t *testing.T) {
	type foreign struct{ Advertisement }
	if _, err := EncodeXML(foreign{}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("EncodeXML(foreign) error %v, want ErrUnknownType", err)
	}
}
