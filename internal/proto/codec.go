package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Wire framing of the real TCP transport.
//
// Every connection opens with a two-byte preface — the magic byte 0xBC
// and a codec version — followed by length-prefixed frames: a
// big-endian uint32 frame length, then a kind byte, the sender's node ID
// and the message body in the hand-written binary encoding (binary.go).
// A connection that opens with anything else is refused (ReadPreface).
//
// Storage blobs (EncodeJob/EncodeMessage) carry the same magic: a blob
// is [magic, version, kind, body], and one that does not start that way
// — another program's, or an older build's with another version —
// decodes to an error wrapping ErrCorrupt, which recovery logs and
// skips like any other corrupt record. A job header (EncodeJobHeader)
// is the one blob that nests: a prefix naming the payloads stored
// outside it, then the record itself as EncodeJob writes it. A log
// header (EncodeLogged) is a message blob with its payload's bytes cut
// out and kindBare set in the kind byte.
//
// Stores keep the very slice an encoder returns (node.Disk's ownership
// contract), so every storage encoder sizes its result: capacity a
// generous hint reserved and the encoding did not use would otherwise
// be retained for as long as the entry is. A small encoding — every job
// header and log entry of a call under BlobMin — is written into a
// pooled scratch buffer and copied into a buffer of proto's payload pool
// whose capacity is the size class a make of its length would get; its
// owner gives it back (ReleasePayload) once a later write or delete of
// its key has completed, when the store holds it no more (node.Disk). A
// larger one is encoded into a make of its hint, trimmed if the hint
// fell short.

// EncodeJob serializes a job record, payloads included, for durable
// storage.
func EncodeJob(rec *JobRecord) []byte { return encodeJobHeader(rec, 0) }

// Bits of a job header's prefix, each naming a payload cut out of it.
const (
	jobParams = 1 << iota
	jobOutput
)

// EncodeJobHeader serializes rec for durable storage as EncodeLogged does
// a message: a payload of BlobMin bytes or more is cut out, its length
// left in the header, and returned as is for the caller to store beside
// it (nil: the payload stayed inline) — written once, while the header
// is rewritten on every state transition of the job. With both inline
// the header is EncodeJob's whole record, byte for byte.
func EncodeJobHeader(rec *JobRecord) (header, params, output []byte) {
	var cut byte
	if len(rec.Params) >= BlobMin {
		cut, params = jobParams, rec.Params
	}
	if len(rec.Output) >= BlobMin {
		cut, output = cut|jobOutput, rec.Output
	}
	return encodeJobHeader(rec, cut), params, output
}

// encodeJobHeader encodes rec without the payloads in external.
func encodeJobHeader(rec *JobRecord, external byte) []byte {
	inline := *rec
	var scratch [4 + 2*binary.MaxVarintLen64]byte
	prefix := scratch[:0]
	if external != 0 {
		prefix = append(prefix, binMagic, binVersion, kindJobHeader, external)
		if external&jobParams != 0 {
			prefix = binary.AppendUvarint(prefix, uint64(len(rec.Params)))
			inline.Params = nil
		}
		if external&jobOutput != 0 {
			prefix = binary.AppendUvarint(prefix, uint64(len(rec.Output)))
			inline.Output = nil
		}
	}
	return encodeSized(len(prefix)+3+inline.wireSize(), func(dst []byte) []byte {
		dst = append(dst, prefix...)
		dst = append(dst, binMagic, binVersion, kindJobRecord)
		return appendJobBody(dst, &inline, nil)
	})
}

// scratchMax is the largest size hint encoded through a pooled scratch
// buffer and copied out at its exact length. Hints over-estimate by a
// headerSize per record: a third of a 64 B submission's log entry, noise
// on the payload-sized encodings above this line, which are therefore
// allocated from their hint directly and spared the second copy.
const scratchMax = 4 << 10

// encodeSized runs an append-style encoder and returns its output in a
// slice of its own with no capacity to spare beyond its size class: a
// small one in a buffer from the payload pool, which its holder may give
// back (ReleasePayload).
func encodeSized(hint int, enc func(dst []byte) []byte) []byte {
	if hint > scratchMax {
		return rightSized(enc(make([]byte, 0, hint)))
	}
	scratch := GetBuffer()
	scratch.B = enc(scratch.B)
	out := getPayload(len(scratch.B))
	copy(out, scratch.B)
	PutBuffer(scratch)
	return out
}

// rightSized returns b, or a copy of it when b's spare capacity exceeds
// what the allocator's own size classes would round up to anyway (an
// eighth): a hint that fell short made append double the buffer.
func rightSized(b []byte) []byte {
	if cap(b)-len(b) <= len(b)/8 {
		return b
	}
	return append([]byte(nil), b...)
}

// EncodeMessage serializes any registered protocol message with a kind
// tag, for message logs and result logs.
func EncodeMessage(msg Message) []byte {
	kind := kindOf(msg)
	if kind == kindInvalid {
		panic("proto: encode unregistered message type " + msg.Kind())
	}
	// WireSize over-estimates framing generously (headerSize per
	// record), so a direct allocation almost never regrows.
	return encodeSized(3+msg.WireSize(), func(dst []byte) []byte {
		dst = append(dst, binMagic, binVersion, kind)
		return appendMessageBody(dst, msg, nil)
	})
}

// BlobMin is the description/archive line of every durable layout in
// the tree (the paper's "job descriptions in a database, file archives
// in an optimized file system"): a payload of at least this many bytes
// is stored as a blob of its own — the very slice the message carries,
// under node.Disk's ownership contract — beside a small header; below
// it a payload costs less to encode with its header than a second key
// costs to keep.
const BlobMin = 4 << 10

// EncodeLogged serializes msg for a message log or result log. With a
// payload under BlobMin (or none) data is EncodeMessage's whole
// encoding and blob is nil. Otherwise data is a header — that encoding
// with the payload's bytes cut out, its count left in place — and blob
// is the payload itself, not a copy, for the caller to store beside the
// header: len(data)+len(blob) is the length of the whole encoding, so a
// model that charges a log write by the byte charges what it did.
func EncodeLogged(msg Message) (data, blob []byte) {
	p := payloadOf(msg)
	if p == nil || len(*p) < BlobMin {
		return EncodeMessage(msg), nil
	}
	var cuts []cut // the payload, which payloadOf has named already
	data = encodeSized(3+msg.WireSize()-len(*p), func(dst []byte) []byte {
		dst = append(dst, binMagic, binVersion, kindOf(msg)|kindBare)
		if m, ok := msg.(*Submit); ok {
			return appendSubmitBody(dst, m, &cuts)
		}
		return appendTaskResultBody(dst, msg.(*TaskResult), &cuts) // payloadOf knows no third
	})
	return data, *p
}

// NamedPayloads reports which payloads a stored header names — cut out
// by its encoder for the caller to store beside it — a bit each: bit 0
// for a log header's (EncodeLogged), bits 0 and 1 for a job header's
// params and output (EncodeJobHeader). A whole encoding names none.
func NamedPayloads(data []byte) byte {
	switch {
	case len(data) < 3 || data[0] != binMagic || data[1] != binVersion:
		return 0 // no header of ours (and no error built to say so)
	case data[2] == kindJobHeader && len(data) > 3:
		return data[3] & (jobParams | jobOutput)
	case data[2]&kindBare != 0:
		return 1
	}
	return 0
}

// Decoder decodes storage blobs. The zero value is ready; a decoder
// that is reused across records interns repeated strings (node IDs,
// users, services) so steady-state decodes allocate only the message
// itself. Decoders are not safe for concurrent use.
type Decoder struct {
	intern internTable
	// rd is the per-call reader, embedded so decoding does not heap-
	// allocate it (passing a stack reader through the generic slice
	// readers makes it escape).
	rd binReader
}

// blobKind checks a storage blob's three-byte header and returns its
// kind byte. A blob that does not open with the magic is not one of
// ours at all — random bytes, or a store some other program wrote. One
// of another version (an older build's) is no better: this build reads
// one layout, so recovery skips it as it skips a torn one.
func blobKind(raw []byte) (uint8, error) {
	switch {
	case len(raw) == 0 || raw[0] != binMagic:
		return 0, fmt.Errorf("%w (no magic byte)", ErrCorrupt)
	case len(raw) < 3:
		return 0, fmt.Errorf("%w (truncated header)", ErrCorrupt)
	case raw[1] != binVersion:
		return 0, fmt.Errorf("%w (codec version %d, not %d)", ErrCorrupt, raw[1], binVersion)
	}
	return raw[2], nil
}

// DecodeJob parses a job record previously produced by EncodeJob.
func (d *Decoder) DecodeJob(raw []byte) (*JobRecord, error) {
	kind, err := blobKind(raw)
	if err != nil {
		return nil, fmt.Errorf("proto: decode job record: %w", err)
	}
	if kind != kindJobRecord {
		return nil, fmt.Errorf("proto: decode job record: kind %d is not a job record", kind)
	}
	d.rd = binReader{buf: raw[3:], intern: &d.intern}
	rec := readJobBody(&d.rd)
	if d.rd.err != nil {
		return nil, fmt.Errorf("proto: decode job record: %w", d.rd.err)
	}
	if d.rd.remaining() != 0 {
		return nil, fmt.Errorf("proto: decode job record: %w (trailing bytes)", ErrCorrupt)
	}
	return &rec, nil
}

// splitJobHeader parses a job header's prefix: the payloads it names,
// the length recorded for each, and the record after them. A whole
// record names nothing.
func splitJobHeader(raw []byte) (named byte, lens [2]int, rec []byte, err error) {
	if len(raw) < 3 || raw[0] != binMagic || raw[1] != binVersion || raw[2] != kindJobHeader {
		return 0, lens, raw, nil
	}
	rd := binReader{buf: raw[3:]}
	if named = rd.u8(); named == 0 || named&^(jobParams|jobOutput) != 0 {
		rd.fail()
	}
	for i := range lens {
		if named&(1<<i) != 0 {
			lens[i] = rd.length()
		}
	}
	if rd.err != nil {
		return 0, lens, nil, fmt.Errorf("proto: decode job header: %w", rd.err)
	}
	return named, lens, raw[3+rd.pos:], nil
}

// DecodeJobHeader parses what EncodeJobHeader or EncodeJob produced,
// joining each payload the header names to its blob — params or output,
// what the caller found stored beside it — shared. A blob that is
// missing or not the length the header recorded was torn or never
// became durable: the error wraps ErrCorrupt, as DecodeLogged's does,
// and the record comes back beside it, short of that payload, so that
// the caller can tell whose it was.
func (d *Decoder) DecodeJobHeader(raw, params, output []byte) (*JobRecord, error) {
	named, lens, raw, err := splitJobHeader(raw)
	if err != nil {
		return nil, err
	}
	rec, err := d.DecodeJob(raw)
	if err != nil {
		return nil, err
	}
	for i, blob := range [2][]byte{params, output} {
		p, name := [2]*[]byte{&rec.Params, &rec.Output}[i], [2]string{"params", "output"}[i]
		switch {
		case named&(1<<i) == 0:
		case *p != nil:
			return nil, fmt.Errorf("proto: decode job header: %w (%s named and inline)", ErrCorrupt, name)
		case blob == nil || len(blob) != lens[i]:
			return rec, fmt.Errorf("proto: decode job header: %w (%s is %d bytes, header says %d)", ErrCorrupt, name, len(blob), lens[i])
		default:
			*p = blob
		}
	}
	return rec, nil
}

// DecodeMessage parses a message previously produced by EncodeMessage.
func (d *Decoder) DecodeMessage(raw []byte) (Message, error) {
	kind, err := blobKind(raw)
	if err != nil {
		return nil, fmt.Errorf("proto: decode message: %w", err)
	}
	d.rd = binReader{buf: raw[3:], intern: &d.intern}
	msg := readMessageBody(&d.rd, kind)
	if d.rd.err != nil {
		return nil, fmt.Errorf("proto: decode message kind %d: %w", kind, d.rd.err)
	}
	if d.rd.remaining() != 0 {
		return nil, fmt.Errorf("proto: decode message: %w (trailing bytes)", ErrCorrupt)
	}
	return msg, nil
}

// DecodeLogged parses what EncodeLogged produced; blob is what the
// caller found stored beside data (nil: nothing). A whole encoding —
// the entry of a message whose payload is under BlobMin — decodes as
// DecodeMessage does. A header takes blob as its payload, shared,
// provided blob has exactly the length the header recorded: a payload
// that is missing or of another length was torn, or never became
// durable, and the entry is corrupt — not logged — rather than a
// message with other bytes.
func (d *Decoder) DecodeLogged(data, blob []byte) (Message, error) {
	if NamedPayloads(data) == 0 {
		return d.DecodeMessage(data)
	}
	kind := data[2] &^ kindBare
	d.rd = binReader{buf: data[3:], intern: &d.intern, bare: true}
	msg := readMessageBody(&d.rd, kind)
	if d.rd.err != nil {
		return nil, fmt.Errorf("proto: decode log header kind %d: %w", kind, d.rd.err)
	}
	p := payloadOf(msg)
	if p == nil || d.rd.remaining() != 0 {
		return nil, fmt.Errorf("proto: decode log header: %w (no payload field, or trailing bytes)", ErrCorrupt)
	}
	if len(blob) != d.rd.payloadLen {
		return nil, fmt.Errorf("proto: decode log header: %w (payload is %d bytes, header says %d)", ErrCorrupt, len(blob), d.rd.payloadLen)
	}
	*p = blob
	return msg, nil
}

// DecodeJob parses a job record with a one-shot decoder.
func DecodeJob(raw []byte) (*JobRecord, error) {
	var d Decoder
	return d.DecodeJob(raw)
}

// DecodeMessage parses a message with a one-shot decoder.
func DecodeMessage(raw []byte) (Message, error) {
	var d Decoder
	return d.DecodeMessage(raw)
}

// ---------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------

// FramePreface is written once at the start of every connection:
// magic + codec version. Receivers verify both (ReadPreface).
var FramePreface = [2]byte{binMagic, binVersion}

// AppendFrame appends one length-prefixed wire frame carrying (from,
// msg) to dst and returns the extended slice. Zero allocation when dst
// has capacity. A message whose encoding exceeds MaxFrame is refused:
// dst comes back truncated to its original length with a non-nil error,
// because every receiver would reject the oversized length prefix and
// tear down the connection — taking the rest of the batch with it. The
// sender drops just that message instead (ordinary best-effort loss).
func AppendFrame(dst []byte, from NodeID, msg Message) ([]byte, error) {
	return appendFrame(dst, from, msg, nil)
}

// appendFrame is AppendFrame, leaving large payloads out into cuts when
// it is non-nil: the length prefix counts them all the same.
func appendFrame(dst []byte, from NodeID, msg Message, cuts *[]cut) ([]byte, error) {
	kind := kindOf(msg)
	if kind == kindInvalid {
		panic("proto: frame unregistered message type " + msg.Kind())
	}
	start, cut0 := len(dst), 0
	if cuts != nil {
		cut0 = len(*cuts)
	}
	dst = append(dst, 0, 0, 0, 0, kind)
	dst = appendString(dst, string(from))
	dst = appendMessageBody(dst, msg, cuts)
	n := len(dst) - start - 4
	if cuts != nil {
		for _, c := range (*cuts)[cut0:] {
			n += len(c.b)
		}
	}
	if n > MaxFrame {
		if cuts != nil {
			clear((*cuts)[cut0:])
			*cuts = (*cuts)[:cut0]
		}
		return dst[:start], fmt.Errorf("proto: %s encodes to %d bytes, over the %d frame cap", msg.Kind(), n, MaxFrame)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// Frames gathers a batch of wire frames for one vectored write: the
// small fields of every frame packed into one scratch buffer, and each
// payload of BlobMin bytes or more left where it lies, referenced, so
// that it goes from the message to the socket with no copy in user
// space. The bytes written are AppendFrame's, frame after frame. The
// zero value is ready; kept across batches (a sender keeps one per
// connection), it allocates nothing once its arrays have grown to the
// usual batch, and between batches it holds no payload.
type Frames struct {
	scratch []byte
	cuts    []cut       // the payloads left out of scratch, in order
	vec     [][]byte    // the write's buffers: scratch and payloads, interleaved
	out     net.Buffers // vec as WriteTo consumes it
}

// AppendPreface starts a connection's first batch with its preface.
func (f *Frames) AppendPreface() { f.scratch = append(f.scratch, FramePreface[:]...) }

// Append adds one frame carrying (from, msg). A message over MaxFrame is
// refused as AppendFrame refuses it, leaving the batch as it was.
func (f *Frames) Append(from NodeID, msg Message) error {
	var err error
	f.scratch, err = appendFrame(f.scratch, from, msg, &f.cuts)
	return err
}

// WriteTo writes the batch to w: a batch without a large payload with
// one Write, any other with one writev when w takes one (a TCP
// connection does; see net.Buffers), else buffer by buffer.
func (f *Frames) WriteTo(w io.Writer) (int64, error) {
	if len(f.cuts) == 0 {
		n, err := w.Write(f.scratch)
		return int64(n), err
	}
	f.vec = f.vec[:0]
	at := 0
	for _, c := range f.cuts {
		f.vec = append(f.vec, f.scratch[at:c.at], c.b)
		at = c.at
	}
	f.vec = append(f.vec, f.scratch[at:])
	f.out = f.vec
	return f.out.WriteTo(w)
}

// Reset empties the batch and lets go of every payload it referenced.
// The scratch buffer is kept for the next batch, unless a giant one grew
// it past maxPooledBuffer.
func (f *Frames) Reset() {
	clear(f.cuts)
	clear(f.vec)
	f.cuts, f.vec, f.out = f.cuts[:0], f.vec[:0], nil
	f.scratch = f.scratch[:0]
	if cap(f.scratch) > maxPooledBuffer {
		f.scratch = nil
	}
}

// WireDecoder reads binary frames from a connection (after the caller
// consumed and verified the two-byte preface). It parses each frame
// through a window of at most BlobMin bytes: a frame under BlobMin is
// read into it whole and parsed in place; of a larger one the window
// holds a part at a time, and every byte slice is read into a slice of
// its own, exactly its length — a payload straight from the connection,
// save the little of it the window had already read, and from BlobMin
// up to 1 MiB into a pooled buffer whose capacity is what a make of
// that length would get (ReleasePayload gives one back). So a connection
// keeps no buffer larger than its usual small frame, or BlobMin, and no
// payload shares an array with another or with the decoder. Strings are
// interned across frames, so a sustained stream decodes without
// per-frame buffer allocations.
type WireDecoder struct {
	r      io.Reader
	hdr    [4]byte
	win    []byte
	intern internTable
	rd     binReader // reused per frame; see Decoder.rd
}

// NewWireDecoder creates a frame decoder over r.
func NewWireDecoder(r io.Reader) *WireDecoder {
	d := &WireDecoder{r: r}
	d.rd = binReader{intern: &d.intern, src: r}
	return d
}

// Next reads one frame. It returns io.EOF exactly at a clean frame
// boundary (connection closed between frames) and ErrUnexpectedEOF on
// a torn frame; any malformed length or body is an error, never a
// panic or an allocation beyond the frame's declared length. After an
// error the stream is out of step: the caller closes it.
func (d *WireDecoder) Next() (NodeID, Message, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return "", nil, err // io.EOF only at a clean boundary
	}
	n := int(binary.BigEndian.Uint32(d.hdr[:]))
	if n == 0 || n > MaxFrame {
		return "", nil, fmt.Errorf("proto: frame length %d out of range", n)
	}
	first := min(n, BlobMin)
	if cap(d.win) < first {
		d.win = make([]byte, first)
	}
	// Field by field: the reader's source and intern table stay.
	d.rd.buf, d.rd.pos, d.rd.err, d.rd.left = d.win[:first], 0, nil, n-first
	if _, err := io.ReadFull(d.r, d.rd.buf); err != nil {
		d.rd.tear(err)
	}
	kind := d.rd.u8()
	from := d.rd.node()
	msg := readMessageBody(&d.rd, kind)
	switch err := d.rd.err; {
	case err == nil && d.rd.remaining() != 0:
		return "", nil, fmt.Errorf("proto: decode frame: %w (trailing bytes)", ErrCorrupt)
	case err == nil:
		return from, msg, nil
	case !errors.Is(err, ErrCorrupt):
		return "", nil, err // the connection failed under the frame
	default:
		return "", nil, fmt.Errorf("proto: decode frame kind %d: %w", kind, err)
	}
}

// ReadPreface consumes and verifies a connection's preface. It returns
// io.EOF only for a connection closed before its first byte.
func ReadPreface(r io.Reader) error {
	var pre [2]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return err
	}
	if pre[0] != binMagic {
		return fmt.Errorf("proto: not a binary preface: 0x%02x", pre[0])
	}
	if pre[1] != binVersion {
		return fmt.Errorf("proto: unknown wire codec version %d", pre[1])
	}
	return nil
}
