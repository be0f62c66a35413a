// Package message implements the JXTA message abstraction: an ordered
// sequence of named, namespaced elements carrying opaque bytes (typically
// XML documents). Messages are what the endpoint service moves between
// peers; every protocol above (resolver, rendezvous, discovery) speaks in
// message elements.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"unsafe"
)

// bufPool recycles encoding buffers for transports that serialize frames on
// a hot path. Buffers are handed out by pointer so Put never re-boxes the
// slice header.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// GetBuffer returns a reusable encoding buffer of zero length. Pass it to
// AppendMarshal and return it with PutBuffer once the frame has been
// written out.
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer returns a buffer obtained from GetBuffer to the pool. The
// caller must not retain the slice afterwards.
func PutBuffer(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Element is one named payload inside a message.
type Element struct {
	Namespace string // e.g. "jxta"
	Name      string // e.g. "ResolverQuery"
	Data      []byte
}

// Size returns the approximate wire footprint of the element.
func (e Element) Size() int { return len(e.Namespace) + len(e.Name) + len(e.Data) + 12 }

// Message is an ordered collection of elements. The zero value is an empty
// message ready to use. Messages must be used by pointer: copying a Message
// value would alias its inline element storage.
type Message struct {
	elements []Element
	// inline backs small messages without a separate slice allocation; the
	// protocol norm is 1-4 elements per message.
	inline [4]Element
}

// New returns an empty message.
func New() *Message { return &Message{} }

// Len returns the number of elements.
func (m *Message) Len() int { return len(m.elements) }

// Add appends a raw element.
func (m *Message) Add(namespace, name string, data []byte) *Message {
	if m.elements == nil {
		m.elements = m.inline[:0]
	}
	m.elements = append(m.elements, Element{Namespace: namespace, Name: name, Data: data})
	return m
}

// AddString appends a text element without copying: the string's backing
// bytes are aliased directly. This is safe because strings are immutable
// and element payloads are read-only by contract — the one boundary that
// hands a message to another peer, transport.Transport.Send, copies or
// serializes the bytes before it returns, and no code path writes into
// Element.Data.
func (m *Message) AddString(namespace, name, value string) *Message {
	return m.Add(namespace, name, stringBytes(value))
}

// stringBytes aliases a string's bytes as a read-only []byte.
func stringBytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// bytesString is the inverse: a string that is a view of b, valid and
// constant only as long as b is left alone.
func bytesString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// reserve makes room for n elements in an empty message: the inline storage
// when they fit it and nothing larger was grown yet, what was grown when
// that suffices, an exact-size slice otherwise.
func (m *Message) reserve(n int) {
	if m.elements == nil && n <= len(m.inline) {
		m.elements = m.inline[:0]
	} else if cap(m.elements) < n {
		m.elements = make([]Element, 0, n)
	}
}

// Append appends every element of o, aliasing (not copying) the payloads:
// the result is valid only as long as o's payloads are. The endpoint builds
// its short-lived wire messages this way.
func (m *Message) Append(o *Message) *Message {
	if m.elements == nil {
		m.elements = m.inline[:0]
	}
	m.elements = append(m.elements, o.elements...)
	return m
}

// Reset empties the message for reuse, dropping every payload reference
// but keeping the element storage it has grown.
func (m *Message) Reset() {
	clear(m.elements)
	m.elements = m.elements[:0]
}

// Out is a pooled outbound message with scratch space: what a sender
// builds, hands to endpoint.Send or transport.Send, and releases as soon as
// that call returns. The transport copies or serializes inside Send and
// retains nothing (the transport.Transport contract), which is what makes
// the reuse safe. Element payloads may alias the caller's bytes (Add,
// AddString, Append) or be rendered into the scratch (AddScratch): IDs,
// integers and small documents that exist only to be sent. Pooled rather
// than held per service: an idle peer should not pay for scratch space.
type Out struct {
	Message
	scratch []byte
	// room backs the scratch until a payload outgrows it, so a new Out is
	// one allocation.
	room [128]byte
}

// What a released Out keeps is bounded, so one bulk message (an SRDI handoff
// of thousands of tuples) does not pin its storage in the pool, while the
// batched messages of the discovery path keep theirs. An Out keeps the
// element slice of a message of up to maxPooledElements elements (append
// grows it to 146 slots); a Loan, sized exactly, keeps at most that many.
const (
	maxPooledScratch  = 4 << 10 // bytes of scratch
	maxPooledElements = 128     // elements
)

var outPool = sync.Pool{New: func() any {
	o := new(Out)
	o.scratch = o.room[:0]
	return o
}}

// Acquire returns an empty Out from the pool. Release it once the message
// has been sent.
func Acquire() *Out { return outPool.Get().(*Out) }

// Release empties the message and returns it to the pool. The caller must
// not touch it, or any payload rendered into its scratch, afterwards.
func (o *Out) Release() {
	if len(o.elements) > maxPooledElements {
		o.elements = nil
	}
	o.Reset()
	o.scratch = o.scratch[:0]
	if cap(o.scratch) > maxPooledScratch {
		o.scratch = o.room[:0]
	}
	outPool.Put(o)
}

// Scratch returns the scratch buffer to append one payload to; pass the
// extended slice to AddScratch:
//
//	o.AddScratch(ns, "QID", strconv.AppendUint(o.Scratch(), qid, 10))
func (o *Out) Scratch() []byte { return o.scratch }

// AddScratch appends an element whose payload is what the caller appended
// to Scratch(). An append that outgrew the buffer moved it; payloads added
// earlier keep aliasing the old one, whose bytes nothing overwrites.
func (o *Out) AddScratch(namespace, name string, extended []byte) {
	data := extended[len(o.scratch):]
	o.scratch = extended
	o.Add(namespace, name, data[:len(data):len(data)])
}

// Loan is a recycled deep copy of a message: the message and the one buffer
// that backs its namespaces, names and payloads — what a frame is to TCP. An
// in-process transport fills one inside Send, lends &l.Message to the
// receiving handler and ends the loan when the handler returns, which is why
// a handler may keep nothing of what it was handed (transport.Handler).
type Loan struct {
	Message
	buf []byte
}

// Fill makes the loan a copy of src, reusing its storage.
func (l *Loan) Fill(src *Message) { l.buf = l.copyFrom(src, l.buf) }

// End empties the loan and reports whether it is worth keeping for reuse: one
// whose storage a bulk message grew past what a released Out keeps is left to
// the collector. With scribble the bytes the borrower saw are overwritten
// first, so that anything which kept a view of them reads garbage (the
// transports' loancheck build tag).
func (l *Loan) End(scribble bool) bool {
	if scribble {
		buf := l.buf[:cap(l.buf)]
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	l.Reset()
	return cap(l.elements) <= maxPooledElements && cap(l.buf) <= maxPooledScratch
}

// Get returns the payload of the first element with the given namespace and
// name, and whether it exists. The returned bytes are read-only: elements
// added via AddString alias immutable string memory.
func (m *Message) Get(namespace, name string) ([]byte, bool) {
	for _, e := range m.elements {
		if e.Namespace == namespace && e.Name == name {
			return e.Data, true
		}
	}
	return nil, false
}

// GetString returns a text element's payload, or "" if absent.
func (m *Message) GetString(namespace, name string) string {
	data, _ := m.Get(namespace, name)
	return string(data)
}

// Field names one element for Read and says where its payload goes.
type Field struct {
	Name string
	Into *[]byte
}

// Read collects, in one pass over the elements, the payload of the first
// element of each given name in the namespace (as with Get, the first of a
// name wins). It is how a service reads its header off a delivered message:
// as bytes, in place, allocating nothing; the payloads alias the message's.
// Bit i of the result is set when fields[i] was present, which tells an
// absent element from an empty one.
func (m *Message) Read(namespace string, fields ...Field) (present uint32) {
	for _, el := range m.elements {
		if el.Namespace != namespace {
			continue
		}
		for i, f := range fields {
			if f.Name == el.Name {
				if present&(1<<i) == 0 {
					present |= 1 << i
					*f.Into = el.Data
				}
				break
			}
		}
	}
	return present
}

// Elements returns the elements in order. The slice is shared; callers must
// not mutate it.
func (m *Message) Elements() []Element { return m.elements }

// Clone returns a deep copy that owns everything it points at: namespaces,
// names and payloads. It is what a holder calls to keep a message that is on
// loan (a delivered one, transport.Handler) or a view of someone else's
// bytes (UnmarshalAlias). A clone costs three allocations however many
// elements it carries, two when they fit the inline storage.
func (m *Message) Clone() *Message {
	cp := &Message{}
	cp.copyFrom(m, nil)
	return cp
}

// copyFrom makes m a deep copy of src and is the one copy routine (Clone,
// and Loan.Fill for the in-process transports inside Send, so that a receiver
// can never observe sender-side mutation — they must behave like a network
// that serializes bytes). Every namespace, name and payload of src is copied into
// buf's storage, overwriting what it held (a larger buffer is allocated when
// it is too small), and m's elements alias it, capacity-clipped so an append
// on one can never bleed into the next. The buffer is returned: m is valid
// until its bytes are overwritten, and a Loan, which recycles both, passes it
// back in and copies the next message without allocating. Names are copied
// too because src's may themselves be views of a buffer src does not own
// (UnmarshalAlias).
func (m *Message) copyFrom(src *Message, buf []byte) []byte {
	m.Reset()
	total := 0
	for _, e := range src.elements {
		total += len(e.Namespace) + len(e.Name) + len(e.Data)
	}
	// Sized up front: elements alias buf, so it must not move while they are
	// appended.
	if buf = buf[:0]; cap(buf) < total {
		buf = make([]byte, 0, total)
	}
	m.reserve(len(src.elements))
	for _, e := range src.elements {
		var ns, name, data []byte
		buf, ns = appendChunk(buf, stringBytes(e.Namespace))
		buf, name = appendChunk(buf, stringBytes(e.Name))
		buf, data = appendChunk(buf, e.Data)
		m.elements = append(m.elements, Element{Namespace: bytesString(ns), Name: bytesString(name), Data: data})
	}
	return buf
}

// appendChunk appends b to buf and returns the copy, capacity-clipped.
func appendChunk(buf, b []byte) (extended, chunk []byte) {
	off := len(buf)
	buf = append(buf, b...)
	return buf, buf[off:len(buf):len(buf)]
}

// Size returns the approximate wire footprint of the whole message. The
// network model charges transmission time proportional to this.
func (m *Message) Size() int {
	n := 8 // header
	for _, e := range m.elements {
		n += e.Size()
	}
	return n
}

// Wire format:
//
//	magic "JXM1" | uvarint elementCount | elements...
//	element: uvarint nsLen | ns | uvarint nameLen | name | uvarint dataLen | data
const magic = "JXM1"

// Unmarshal hard limits guarding against corrupt or hostile frames.
const (
	maxElements    = 1 << 12
	maxElementSize = 1 << 24
)

// Errors returned by Unmarshal.
var (
	ErrBadMagic  = errors.New("message: bad magic")
	ErrTruncated = errors.New("message: truncated frame")
	ErrTooLarge  = errors.New("message: element exceeds limits")
)

// MarshaledSize returns the exact encoded length of the frame Marshal
// produces, so encoding buffers can be sized without a growth path.
func (m *Message) MarshaledSize() int {
	n := len(magic) + uvarintLen(uint64(len(m.elements)))
	for _, e := range m.elements {
		n += uvarintLen(uint64(len(e.Namespace))) + len(e.Namespace)
		n += uvarintLen(uint64(len(e.Name))) + len(e.Name)
		n += uvarintLen(uint64(len(e.Data))) + len(e.Data)
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Marshal encodes the message into a self-delimiting binary frame. The
// returned buffer is exactly sized and owned by the caller; senders on a
// hot path should prefer AppendMarshal with a pooled buffer.
func (m *Message) Marshal() []byte {
	return m.AppendMarshal(make([]byte, 0, m.MarshaledSize()))
}

// AppendMarshal appends the encoded frame to dst and returns the extended
// slice, letting callers amortize buffer allocations across sends.
func (m *Message) AppendMarshal(dst []byte) []byte {
	buf := dst
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, uint64(len(m.elements)))
	for _, e := range m.elements {
		buf = binary.AppendUvarint(buf, uint64(len(e.Namespace)))
		buf = append(buf, e.Namespace...)
		buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(e.Data)))
		buf = append(buf, e.Data...)
	}
	return buf
}

// Unmarshal decodes a frame produced by Marshal. The message owns its bytes:
// data may be reused as soon as Unmarshal returns. One copy of the frame
// backs every element — namespaces, names and payloads alias it, read-only
// like all element data — so decoding costs two or three allocations however
// many elements the message has.
func Unmarshal(data []byte) (*Message, error) {
	count, body, err := frameHeader(data)
	if err != nil {
		return nil, err
	}
	m := &Message{}
	if err := m.decodeElements(count, append([]byte(nil), body...)); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalAlias decodes a frame into m, replacing its elements, without
// copying: every namespace, name and payload aliases data, so the message is
// valid only as long as data is left alone, and whoever keeps any of it
// longer clones it. The walker reads the message nested in a walk element
// this way, and the TCP transport each frame: the bytes belong to the
// delivery and are on loan for the handler call. On error m is left empty.
func (m *Message) UnmarshalAlias(data []byte) error {
	m.Reset()
	count, body, err := frameHeader(data)
	if err == nil {
		err = m.decodeElements(count, body)
	}
	if err != nil {
		m.Reset()
	}
	return err
}

// frameHeader checks the magic and the element count and returns the rest of
// the frame.
func frameHeader(data []byte) (count uint64, body []byte, err error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return 0, nil, ErrBadMagic
	}
	rest := data[len(magic):]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	if count > maxElements {
		return 0, nil, fmt.Errorf("%w: %d elements", ErrTooLarge, count)
	}
	return count, rest[n:], nil
}

// decodeElements appends count elements decoded from rest, aliasing it.
func (m *Message) decodeElements(count uint64, rest []byte) error {
	m.reserve(int(count)) // count <= maxElements
	readChunk := func() ([]byte, error) {
		l, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, ErrTruncated
		}
		if l > maxElementSize {
			return nil, fmt.Errorf("%w: chunk of %d bytes", ErrTooLarge, l)
		}
		rest = rest[n:]
		if uint64(len(rest)) < l {
			return nil, ErrTruncated
		}
		chunk := rest[:l:l]
		rest = rest[l:]
		return chunk, nil
	}
	for i := uint64(0); i < count; i++ {
		ns, err := readChunk()
		if err != nil {
			return err
		}
		name, err := readChunk()
		if err != nil {
			return err
		}
		payload, err := readChunk()
		if err != nil {
			return err
		}
		m.elements = append(m.elements, Element{Namespace: bytesString(ns), Name: bytesString(name), Data: payload})
	}
	if len(rest) != 0 {
		return fmt.Errorf("message: %d trailing bytes", len(rest))
	}
	return nil
}

// String summarizes the message for logs.
func (m *Message) String() string {
	s := "msg{"
	for i, e := range m.elements {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s:%s(%dB)", e.Namespace, e.Name, len(e.Data))
	}
	return s + "}"
}
