package advertisement

import (
	"bytes"
	"errors"
	"testing"

	"jxta/internal/ids"
)

// sixOf builds one advertisement of each type with every field filled from
// the given strings; shape picks list lengths, empty optional fields and nil
// IDs, so the fuzzer reaches every branch of the writers.
func sixOf(a, b, c, d string, shape uint8) []Advertisement {
	id := func(kind ids.Kind, s string) ids.ID {
		if shape&0x80 != 0 && s == "" {
			return ids.Nil
		}
		return ids.FromName(kind, s)
	}
	n := int(shape & 3)
	var addrs []string
	var hops []ids.ID
	var attrs []IndexField
	for i, s := range []string{a, b, c, d}[:n] {
		addrs = append(addrs, s)
		hops = append(hops, id(ids.KindPeer, s))
		attrs = append(attrs, IndexField{Attr: s, Value: []string{d, c, b, a}[i]})
	}
	desc := c
	if shape&4 != 0 {
		desc = ""
	}
	return []Advertisement{
		&Peer{PeerID: id(ids.KindPeer, a), Name: b, Desc: desc, Addresses: addrs},
		&Rdv{PeerID: id(ids.KindPeer, a), GroupID: id(ids.KindGroup, b), Name: c, Address: d},
		&Route{DestID: id(ids.KindPeer, d), Hops: hops},
		&Pipe{PipeID: id(ids.KindPipe, a), Name: b, Kind: c},
		&Module{ModuleID: id(ids.KindModule, d), Name: a, Desc: desc},
		&Resource{ResID: id(ids.KindAdv, b), Name: a, Attrs: attrs},
	}
}

// FuzzAppendXML holds the tree-free writer to the document tree: for every
// type and any field values — escapes, CR/LF/tab, invalid UTF-8, runes
// outside the XML range — AppendXML writes exactly Document().Marshal()'s
// bytes after whatever buf held, and EncodeXML returns them in a slice whose
// capacity is its length.
func FuzzAppendXML(f *testing.F) {
	f.Add("Test", "rennes", "a peer", "sim://rennes/1", uint8(3))
	f.Add(`"'&<>`, "tab\there", "line\nbreak", "cr\rhere\r\n", uint8(2))
	f.Add("\x00\x01\x1f", "caf\xc3\xa9", "bad\xff\xfeutf8", "\xef\xbf\xbd￾\U0010FFFF", uint8(1))
	f.Add("", "", "", "", uint8(0x87))
	f.Add("]]>", "&amp;", "<!-- x -->", " lead trail ", uint8(6))
	f.Fuzz(func(t *testing.T, a, b, c, d string, shape uint8) {
		for _, adv := range sixOf(a, b, c, d, shape) {
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
	})
}

// TestAppendXMLUnknownType: a value of a type this package does not define
// has no encoding.
func TestAppendXMLUnknownType(t *testing.T) {
	type foreign struct{ Advertisement }
	if _, err := EncodeXML(foreign{}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("EncodeXML(foreign) error %v, want ErrUnknownType", err)
	}
}
