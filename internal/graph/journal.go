package graph

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Batch journal: the on-disk form of one staged Batch — the unit the
// resumable build checkpoints after every successful crawler commit. A
// journal replays into an identical ApplyBatch call, so a build resumed
// from journals produces the same graph as the uninterrupted build that
// would have applied the live batches.
//
// Layout:
//
//	magic "IYPJ" | version u8 = 1
//	crc32c(compressed body) u32le | compressed len u64le |
//	uncompressed len u64le | gzip(body)
//
// Body:
//
//	merges: uvarint count, per merge:
//	    label string, key string, identity value,
//	    uvarint extra-label count + strings, props
//	ops: uvarint count, per op:
//	    kind u8, node uvarint, to uvarint, name string, value, props
//
// The CRC is verified before decompression and every handle is validated
// against the merge count, so a damaged journal yields ErrCorrupt rather
// than a half-replayed batch.
const (
	batchMagic   = "IYPJ"
	batchVersion = 1
)

// props encodes a boxed property map: count, then key string + value per
// entry, in key order so identical batches produce identical journals.
func (e *encBuf) props(p Props) {
	e.uvarint(uint64(len(p)))
	for _, k := range p.Keys() {
		e.string(k)
		e.value(p[k])
	}
}

// readBatchProps decodes a property map written by encBuf.props.
func readBatchProps(d *sliceReader) (Props, error) {
	n, err := readUvarint(d)
	if err != nil {
		return nil, err
	}
	// Each entry takes at least two bytes (key length + value kind).
	if n > d.limit() {
		return nil, corruptf("property count %d too large", n)
	}
	p := make(Props, min(n, initialPropCap))
	for i := uint64(0); i < n; i++ {
		k, err := readString(d)
		if err != nil {
			return nil, err
		}
		v, err := readValue(d)
		if err != nil {
			return nil, err
		}
		p[k] = v
	}
	return p, nil
}

// WriteBatch encodes b to w.
func WriteBatch(w io.Writer, b *Batch) error {
	var enc encBuf
	enc.uvarint(uint64(len(b.merges)))
	for _, m := range b.merges {
		enc.string(m.label)
		enc.string(m.key)
		enc.value(m.val)
		enc.uvarint(uint64(len(m.extraLabels)))
		for _, l := range m.extraLabels {
			enc.string(l)
		}
		enc.props(m.props)
	}
	enc.uvarint(uint64(len(b.ops)))
	for _, op := range b.ops {
		enc.byte(byte(op.kind))
		enc.uvarint(uint64(op.node))
		enc.uvarint(uint64(op.to))
		enc.string(op.name)
		enc.value(op.val)
		enc.props(op.props)
	}

	var comp bytes.Buffer
	zw := gzip.NewWriter(&comp)
	if _, err := zw.Write(enc.b); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}

	var hdr [len(batchMagic) + 1 + 4 + 8 + 8]byte
	copy(hdr[:], batchMagic)
	hdr[len(batchMagic)] = batchVersion
	binary.LittleEndian.PutUint32(hdr[len(batchMagic)+1:], crc32.Checksum(comp.Bytes(), castagnoli))
	binary.LittleEndian.PutUint64(hdr[len(batchMagic)+5:], uint64(comp.Len()))
	binary.LittleEndian.PutUint64(hdr[len(batchMagic)+13:], uint64(len(enc.b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(comp.Bytes())
	return err
}

// ReadBatch decodes a journal written by WriteBatch, validating the
// checksum before decompression and every staged handle before returning.
// Damaged input yields an error wrapping ErrCorrupt.
func ReadBatch(r io.Reader) (*Batch, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: batch journal read: %w", err)
	}
	const hdrSize = len(batchMagic) + 1 + 4 + 8 + 8
	if len(data) < hdrSize {
		return nil, corruptf("batch journal too short (%d bytes)", len(data))
	}
	if string(data[:len(batchMagic)]) != batchMagic {
		return nil, fmt.Errorf("graph: not a batch journal (bad magic %q)", data[:len(batchMagic)])
	}
	if v := data[len(batchMagic)]; v != batchVersion {
		return nil, fmt.Errorf("graph: unsupported batch journal version %d", v)
	}
	wantCRC := binary.LittleEndian.Uint32(data[len(batchMagic)+1:])
	clen := binary.LittleEndian.Uint64(data[len(batchMagic)+5:])
	ulen := binary.LittleEndian.Uint64(data[len(batchMagic)+13:])
	if clen != uint64(len(data)-hdrSize) {
		return nil, corruptf("batch journal length %d does not match remaining %d bytes", clen, len(data)-hdrSize)
	}
	if ulen > clen*1032+1024 {
		return nil, corruptf("batch journal uncompressed length %d implausible for %d compressed bytes", ulen, clen)
	}
	comp := data[hdrSize:]
	if got := crc32.Checksum(comp, castagnoli); got != wantCRC {
		return nil, corruptf("batch journal checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return nil, corruptf("batch journal: %v", err)
	}
	defer zr.Close()
	var body bytes.Buffer
	n, err := io.Copy(&body, io.LimitReader(zr, int64(ulen)+1))
	if err != nil {
		return nil, corruptf("batch journal: %v", err)
	}
	if uint64(n) != ulen {
		return nil, corruptf("batch journal decompressed to %d bytes, header claims %d", n, ulen)
	}

	d := &sliceReader{data: body.Bytes()}
	b := NewBatch()
	nMerges, err := readUvarint(d)
	if err != nil {
		return nil, err
	}
	if nMerges > d.limit() {
		return nil, corruptf("batch journal merge count %d exceeds input", nMerges)
	}
	for i := uint64(0); i < nMerges; i++ {
		var m stagedMerge
		if m.label, err = readString(d); err != nil {
			return nil, err
		}
		if m.key, err = readString(d); err != nil {
			return nil, err
		}
		if m.val, err = readValue(d); err != nil {
			return nil, err
		}
		ne, err := readUvarint(d)
		if err != nil {
			return nil, err
		}
		if ne > d.limit() {
			return nil, corruptf("batch journal extra-label count %d exceeds input", ne)
		}
		for j := uint64(0); j < ne; j++ {
			l, err := readString(d)
			if err != nil {
				return nil, err
			}
			m.extraLabels = append(m.extraLabels, l)
		}
		if m.props, err = readBatchProps(d); err != nil {
			return nil, err
		}
		b.merges = append(b.merges, m)
	}
	nOps, err := readUvarint(d)
	if err != nil {
		return nil, err
	}
	if nOps > d.limit() {
		return nil, corruptf("batch journal op count %d exceeds input", nOps)
	}
	for i := uint64(0); i < nOps; i++ {
		var op stagedOp
		kb, err := d.ReadByte()
		if err != nil {
			return nil, err
		}
		if kb > byte(opAddRel) {
			return nil, corruptf("batch journal op kind %d unknown", kb)
		}
		op.kind = opKind(kb)
		node, err := readUvarint(d)
		if err != nil {
			return nil, err
		}
		to, err := readUvarint(d)
		if err != nil {
			return nil, err
		}
		if node == 0 || node > nMerges {
			return nil, corruptf("batch journal op references handle %d of %d", node, nMerges)
		}
		if op.kind == opAddRel && (to == 0 || to > nMerges) {
			return nil, corruptf("batch journal op references handle %d of %d", to, nMerges)
		}
		op.node, op.to = NodeID(node), NodeID(to)
		if op.name, err = readString(d); err != nil {
			return nil, err
		}
		if op.val, err = readValue(d); err != nil {
			return nil, err
		}
		if op.props, err = readBatchProps(d); err != nil {
			return nil, err
		}
		if op.kind == opAddRel {
			b.rels++
		}
		b.ops = append(b.ops, op)
	}
	if d.remaining() != 0 {
		return nil, corruptf("batch journal has %d trailing bytes", d.remaining())
	}
	return b, nil
}
