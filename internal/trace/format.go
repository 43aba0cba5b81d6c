package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/valmodel"
)

// magic identifies trace files; the u16 after it is the format version.
var magic = [4]byte{'P', 'L', 'T', 'R'}

const (
	version   = 2
	chunkTag  = 0x01
	footerTag = 0x02

	trailerMagic = "PLTR-END"
	// trailer magic + footer offset + trailer CRC.
	trailerLen = 8 + 8 + 4
	// magic + version.
	fileHeaderLen = 4 + 2
	// tag + warp + firstIndex + count + payloadLen.
	chunkFrameLen = 1 + 4 + 8 + 4 + 4
	// A ChunkInfo's wire size in the footer index.
	chunkInfoLen = 8 + 8 + 4 + 4
	// The smallest record: kind + cycles or address count.
	minRecordLen = 1 + 2

	// DefaultChunkRecords is the records-per-chunk target: large enough
	// to amortize per-chunk framing and file opens, small enough that
	// one resident chunk per warp stays far below materializing the
	// trace.
	DefaultChunkRecords = 1024

	// maxWarps bounds the header's warp count against corrupt files
	// allocating absurd index slices before any CRC is cross-checked.
	maxWarps = 1 << 22
)

// Header describes a trace stream: its warp count, the value model of
// the captured workload, and the writer's chunking target.
type Header struct {
	Warps int
	// Model reproduces the source workload's memory image and store
	// values; HasModel records whether the captured workload exposed
	// one (everything in this repo does — see valmodel.Modeler).
	Model    valmodel.Model
	HasModel bool
	// ChunkRecords is the records-per-chunk target (0 = default).
	ChunkRecords int
}

// Codec walks the header payload: warp count, value model, chunk
// target. Decoding rejects a warp count or chunk target out of range.
func (h *Header) Codec(c *checkpoint.Codec) {
	checkpoint.Uint32(c, &h.Warps)
	c.Bool(&h.HasModel)
	h.Model.Codec(c)
	checkpoint.Uint32(c, &h.ChunkRecords)
	switch {
	case !c.Decoding():
	case h.Warps < 1 || h.Warps > maxWarps:
		c.Corrupt("warp count %d out of range", h.Warps)
	case h.ChunkRecords < 1:
		c.Corrupt("chunk target %d out of range", h.ChunkRecords)
	}
}

// ChunkInfo locates one chunk of a warp's stream inside the file; the
// footer index is a per-warp slice of these.
type ChunkInfo struct {
	// Offset is the file offset of the chunk's tag byte.
	Offset uint64
	// FirstIndex is the per-warp record index of the chunk's first
	// record; a warp's chunks are contiguous: each chunk starts where
	// the previous one ended.
	FirstIndex uint64
	// Count is the number of records in the chunk (> 0).
	Count uint32
	// PayloadLen is the encoded record bytes, excluding framing and CRC.
	PayloadLen uint32
}

// footer is the footer payload, which Writer and Reader both carry: the
// record total and each warp's chunk index.
type footer struct {
	total uint64
	index [][]ChunkInfo
}

// walk walks the footer in wire order: total, warp count, then each
// warp's chunk count and entries. index holds one slice per header
// warp; decoding fills them, bounding each warp's chunk count by
// maxChunks, the chunk frames the file can hold.
func (f *footer) walk(c *checkpoint.Codec, maxChunks uint64) {
	c.U64(&f.total)
	warps := len(f.index)
	checkpoint.Uint32(c, &warps)
	if warps != len(f.index) {
		c.Corrupt("footer has %d warps, header %d", warps, len(f.index))
		return
	}
	for w := range f.index {
		n := len(f.index[w])
		c.Len32(&n, maxChunks, chunkInfoLen)
		if c.Decoding() {
			f.index[w] = make([]ChunkInfo, n)
		}
		for i := range f.index[w] {
			ci := &f.index[w][i]
			c.U64(&ci.Offset)
			c.U64(&ci.FirstIndex)
			c.U32(&ci.Count)
			c.U32(&ci.PayloadLen)
		}
	}
}

// Writer streams records into the PLTR-v2 format. Errors are sticky in
// the codec discipline: after the first failed write every Append is a
// no-op and Close reports the error once. Memory stays bounded — one
// pending chunk per warp plus the (small) footer index.
type Writer struct {
	footer
	bw     *bufio.Writer
	off    uint64
	hdr    Header
	pend   []pendingChunk
	err    error
	closed bool
}

type pendingChunk struct {
	buf   []byte
	count uint32
	first uint64 // per-warp index of the first buffered record
	next  uint64 // per-warp index of the next record to append
}

// NewWriter writes the file header and returns a streaming writer.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	if hdr.Warps < 1 || hdr.Warps > maxWarps {
		return nil, fmt.Errorf("trace: warp count %d out of range", hdr.Warps)
	}
	if hdr.ChunkRecords <= 0 {
		hdr.ChunkRecords = DefaultChunkRecords
	}
	tw := &Writer{
		footer: footer{index: make([][]ChunkInfo, hdr.Warps)},
		bw:     bufio.NewWriter(w),
		hdr:    hdr,
		pend:   make([]pendingChunk, hdr.Warps),
	}
	tw.write(magic[:])
	tw.writeU16(version)
	tw.writeFramed(tw.hdr.Codec)
	return tw, tw.err
}

func (tw *Writer) write(p []byte) {
	if tw.err != nil {
		return
	}
	if _, err := tw.bw.Write(p); err != nil {
		tw.err = fmt.Errorf("trace: write: %w", err)
		return
	}
	tw.off += uint64(len(p))
}

func (tw *Writer) writeU16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	tw.write(b[:])
}

func (tw *Writer) writeU32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	tw.write(b[:])
}

func (tw *Writer) writeU64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	tw.write(b[:])
}

// writeFramed writes walk's encoding as a length-prefixed,
// CRC-suffixed payload (the header and footer framing; chunks carry
// extra fields).
func (tw *Writer) writeFramed(walk func(*checkpoint.Codec)) {
	payload, err := checkpoint.Marshal(walk)
	if err != nil && tw.err == nil {
		tw.err = fmt.Errorf("trace: %w", err)
	}
	tw.writeU32(uint32(len(payload)))
	tw.write(payload)
	tw.writeU32(crc32.ChecksumIEEE(payload))
}

// Err returns the first write error, or nil.
func (tw *Writer) Err() error { return tw.err }

// TotalRecords returns the number of records appended so far.
func (tw *Writer) TotalRecords() uint64 { return tw.total }

// Append adds one record to its warp's stream, flushing the warp's
// chunk when it reaches the chunking target.
func (tw *Writer) Append(rec Record) {
	if tw.err != nil {
		return
	}
	switch {
	case tw.closed:
		tw.err = fmt.Errorf("trace: append after Close")
		return
	case int(rec.Warp) >= tw.hdr.Warps:
		tw.err = fmt.Errorf("trace: record warp %d out of range (%d warps)", rec.Warp, tw.hdr.Warps)
		return
	case rec.Kind != gpusim.Compute && rec.Kind != gpusim.Load && rec.Kind != gpusim.Store:
		tw.err = fmt.Errorf("trace: record kind %d invalid", rec.Kind)
		return
	case len(rec.Addrs) > 0xffff:
		tw.err = fmt.Errorf("trace: record has %d addresses, format limit 65535", len(rec.Addrs))
		return
	}
	p := &tw.pend[rec.Warp]
	if p.count == 0 {
		p.first = p.next
	}
	p.buf = append(p.buf, byte(rec.Kind))
	var n uint16
	if rec.Kind == gpusim.Compute {
		n = rec.Cycles
	} else {
		n = uint16(len(rec.Addrs))
	}
	p.buf = binary.LittleEndian.AppendUint16(p.buf, n)
	if rec.Kind != gpusim.Compute {
		for _, a := range rec.Addrs {
			p.buf = binary.LittleEndian.AppendUint64(p.buf, uint64(a))
		}
	}
	p.count++
	p.next++
	tw.total++
	if int(p.count) >= tw.hdr.ChunkRecords {
		tw.flushChunk(int(rec.Warp))
	}
}

// flushChunk writes warp w's pending chunk and records it in the index.
func (tw *Writer) flushChunk(w int) {
	p := &tw.pend[w]
	if p.count == 0 || tw.err != nil {
		return
	}
	ci := ChunkInfo{
		Offset:     tw.off,
		FirstIndex: p.first,
		Count:      p.count,
		PayloadLen: uint32(len(p.buf)),
	}
	tw.write([]byte{chunkTag})
	tw.writeU32(uint32(w))
	tw.writeU64(p.first)
	tw.writeU32(p.count)
	tw.writeU32(uint32(len(p.buf)))
	tw.write(p.buf)
	tw.writeU32(crc32.ChecksumIEEE(p.buf))
	if tw.err == nil {
		tw.index[w] = append(tw.index[w], ci)
	}
	p.buf = p.buf[:0]
	p.count = 0
}

// Close flushes every pending chunk, writes the footer index and the
// trailer, and reports the first error of the whole stream.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	tw.closed = true
	for w := range tw.pend {
		tw.flushChunk(w)
	}

	footerOff := tw.off
	tw.write([]byte{footerTag})
	tw.writeFramed(func(c *checkpoint.Codec) { tw.footer.walk(c, 0) })

	trailer := make([]byte, 0, trailerLen)
	trailer = append(trailer, trailerMagic...)
	trailer = binary.LittleEndian.AppendUint64(trailer, footerOff)
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.ChecksumIEEE(trailer))
	tw.write(trailer)

	if tw.err == nil {
		if err := tw.bw.Flush(); err != nil {
			tw.err = fmt.Errorf("trace: write: %w", err)
		}
	}
	return tw.err
}

// Reader gives random access to a serialized trace: the header and
// footer index are decoded eagerly (both CRC-checked), chunks lazily
// one at a time. It never materializes the record stream.
type Reader struct {
	footer
	r         io.ReaderAt
	size      int64
	hdr       Header
	footerOff uint64
}

// NewReader validates the file structure of r and loads the index.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	tr := &Reader{r: r, size: size}
	if size < fileHeaderLen+trailerLen {
		return nil, fmt.Errorf("trace: %d bytes, need at least %d: %w",
			size, fileHeaderLen+trailerLen, checkpoint.ErrTruncated)
	}

	var fh [fileHeaderLen]byte
	if err := tr.readAt(fh[:], 0); err != nil {
		return nil, err
	}
	if [4]byte(fh[:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q: %w", fh[:4], checkpoint.ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(fh[4:]); v != version {
		return nil, fmt.Errorf("trace: file version %d, this binary reads version %d (re-capture with tracegen): %w",
			v, version, checkpoint.ErrVersion)
	}

	// Trailer first: its absence means the writer never finished.
	var trailer [trailerLen]byte
	if err := tr.readAt(trailer[:], size-trailerLen); err != nil {
		return nil, err
	}
	if string(trailer[:8]) != trailerMagic {
		return nil, fmt.Errorf("trace: trailer magic missing (writer died mid-stream?): %w", checkpoint.ErrTruncated)
	}
	wantCRC := binary.LittleEndian.Uint32(trailer[16:])
	if got := crc32.ChecksumIEEE(trailer[:16]); got != wantCRC {
		return nil, fmt.Errorf("trace: trailer CRC mismatch (got %08x want %08x): %w", got, wantCRC, checkpoint.ErrCorrupt)
	}
	tr.footerOff = binary.LittleEndian.Uint64(trailer[8:16])

	if err := tr.readHeader(); err != nil {
		return nil, err
	}
	if err := tr.readFooter(); err != nil {
		return nil, err
	}
	return tr, nil
}

// readAt fills p from off, mapping short reads to the error taxonomy:
// with an intact trailer the file claims to be complete, so bytes
// missing in the middle mean the content changed.
func (tr *Reader) readAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > tr.size {
		return fmt.Errorf("trace: read [%d,%d) outside %d-byte file: %w",
			off, off+int64(len(p)), tr.size, checkpoint.ErrCorrupt)
	}
	if _, err := tr.r.ReadAt(p, off); err != nil {
		return fmt.Errorf("trace: read at %d: %v: %w", off, err, checkpoint.ErrCorrupt)
	}
	return nil
}

// readFramed reads a length-prefixed CRC-suffixed payload at off,
// bounding the length by limit (the framing's own end bound).
func (tr *Reader) readFramed(off int64, what string) ([]byte, error) {
	var lb [4]byte
	if err := tr.readAt(lb[:], off); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if int64(n) > tr.size-off-8 {
		return nil, fmt.Errorf("trace: %s payload of %d bytes exceeds file: %w", what, n, checkpoint.ErrCorrupt)
	}
	buf := make([]byte, n+4)
	if err := tr.readAt(buf, off+4); err != nil {
		return nil, err
	}
	payload, crcb := buf[:n], buf[n:]
	wantCRC := binary.LittleEndian.Uint32(crcb)
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("trace: %s CRC mismatch (got %08x want %08x): %w", what, got, wantCRC, checkpoint.ErrCorrupt)
	}
	return payload, nil
}

func (tr *Reader) readHeader() error {
	payload, err := tr.readFramed(fileHeaderLen, "header")
	if err != nil {
		return err
	}
	if err := checkpoint.Unmarshal(payload, tr.hdr.Codec); err != nil {
		return fmt.Errorf("trace: header: %w", err)
	}
	return nil
}

func (tr *Reader) readFooter() error {
	fo := int64(tr.footerOff)
	if fo < fileHeaderLen || fo > tr.size-trailerLen-1 {
		return fmt.Errorf("trace: footer offset %d outside file: %w", fo, checkpoint.ErrCorrupt)
	}
	var tag [1]byte
	if err := tr.readAt(tag[:], fo); err != nil {
		return err
	}
	if tag[0] != footerTag {
		return fmt.Errorf("trace: footer tag %#x, want %#x: %w", tag[0], footerTag, checkpoint.ErrCorrupt)
	}
	payload, err := tr.readFramed(fo+1, "footer")
	if err != nil {
		return err
	}
	tr.index = make([][]ChunkInfo, tr.hdr.Warps)
	maxChunks := uint64(tr.size) / chunkFrameLen
	if err := checkpoint.Unmarshal(payload, func(c *checkpoint.Codec) { tr.footer.walk(c, maxChunks) }); err != nil {
		return fmt.Errorf("trace: footer: %w", err)
	}
	var sum uint64
	for w, chunks := range tr.index {
		var next uint64
		for i, ci := range chunks {
			switch {
			case ci.Count == 0:
				return fmt.Errorf("trace: warp %d chunk %d is empty: %w", w, i, checkpoint.ErrCorrupt)
			case ci.FirstIndex != next:
				return fmt.Errorf("trace: warp %d chunk %d starts at record %d, want %d: %w",
					w, i, ci.FirstIndex, next, checkpoint.ErrCorrupt)
			case ci.Offset < fileHeaderLen || int64(ci.Offset)+chunkFrameLen+int64(ci.PayloadLen)+4 > int64(tr.footerOff):
				return fmt.Errorf("trace: warp %d chunk %d at offset %d overruns the footer: %w",
					w, i, ci.Offset, checkpoint.ErrCorrupt)
			case uint64(ci.Count)*minRecordLen > uint64(ci.PayloadLen):
				return fmt.Errorf("trace: warp %d chunk %d claims %d records in %d bytes: %w",
					w, i, ci.Count, ci.PayloadLen, checkpoint.ErrCorrupt)
			}
			next = ci.FirstIndex + uint64(ci.Count)
		}
		sum += next
	}
	if sum != tr.total {
		return fmt.Errorf("trace: footer total %d, index sums to %d: %w", tr.total, sum, checkpoint.ErrCorrupt)
	}
	return nil
}

// Header returns the decoded header.
func (tr *Reader) Header() Header { return tr.hdr }

// Warps returns the trace's warp count.
func (tr *Reader) Warps() int { return tr.hdr.Warps }

// TotalRecords returns the trace's record count, from the footer.
func (tr *Reader) TotalRecords() uint64 { return tr.total }

// Chunks returns warp w's chunk count.
func (tr *Reader) Chunks(w int) int { return len(tr.index[w]) }

// Index returns warp w's chunk index entries.
func (tr *Reader) Index(w int) []ChunkInfo { return tr.index[w] }

// WarpRecords returns warp w's record count.
func (tr *Reader) WarpRecords(w int) uint64 {
	chunks := tr.index[w]
	if len(chunks) == 0 {
		return 0
	}
	last := chunks[len(chunks)-1]
	return last.FirstIndex + uint64(last.Count)
}

// LoadChunk decodes warp w's chunk-th chunk. The chunk's framing must
// agree with the footer index and its payload CRC must verify.
func (tr *Reader) LoadChunk(w, chunk int) ([]Record, error) {
	ci := tr.index[w][chunk]
	buf := make([]byte, chunkFrameLen+int(ci.PayloadLen)+4)
	if int64(ci.Offset)+int64(len(buf)) > tr.size {
		return nil, fmt.Errorf("trace: warp %d chunk at %d overruns file: %w", w, ci.Offset, checkpoint.ErrCorrupt)
	}
	if _, err := tr.r.ReadAt(buf, int64(ci.Offset)); err != nil {
		return nil, fmt.Errorf("trace: warp %d chunk at %d: %v: %w", w, ci.Offset, err, checkpoint.ErrCorrupt)
	}
	switch {
	case buf[0] != chunkTag:
		return nil, fmt.Errorf("trace: warp %d chunk at %d: tag %#x: %w", w, ci.Offset, buf[0], checkpoint.ErrCorrupt)
	case binary.LittleEndian.Uint32(buf[1:]) != uint32(w):
		return nil, fmt.Errorf("trace: chunk at %d belongs to warp %d, index says %d: %w",
			ci.Offset, binary.LittleEndian.Uint32(buf[1:]), w, checkpoint.ErrCorrupt)
	case binary.LittleEndian.Uint64(buf[5:]) != ci.FirstIndex,
		binary.LittleEndian.Uint32(buf[13:]) != ci.Count,
		binary.LittleEndian.Uint32(buf[17:]) != ci.PayloadLen:
		return nil, fmt.Errorf("trace: warp %d chunk at %d disagrees with footer index: %w",
			w, ci.Offset, checkpoint.ErrCorrupt)
	}
	payload := buf[chunkFrameLen : chunkFrameLen+int(ci.PayloadLen)]
	wantCRC := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("trace: warp %d chunk at %d CRC mismatch (got %08x want %08x): %w",
			w, ci.Offset, got, wantCRC, checkpoint.ErrCorrupt)
	}

	recs := make([]Record, 0, ci.Count)
	d := checkpoint.NewDecoder(payload)
	for i := uint32(0); i < ci.Count; i++ {
		kind := gpusim.InstKind(d.U8())
		var nb [2]byte
		nb[0], nb[1] = d.U8(), d.U8()
		n := binary.LittleEndian.Uint16(nb[:])
		rec := Record{Warp: uint32(w), Kind: kind}
		switch kind {
		case gpusim.Compute:
			rec.Cycles = n
		case gpusim.Load, gpusim.Store:
			rec.Addrs = make([]geom.Addr, n)
			for k := range rec.Addrs {
				rec.Addrs[k] = geom.Addr(d.U64())
			}
		default:
			if d.Err() == nil {
				return nil, fmt.Errorf("trace: warp %d record %d: kind %d invalid: %w",
					w, ci.FirstIndex+uint64(i), kind, checkpoint.ErrCorrupt)
			}
		}
		recs = append(recs, rec)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("trace: warp %d chunk at %d: %w", w, ci.Offset, err)
	}
	return recs, nil
}
