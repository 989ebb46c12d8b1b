package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// maxMetaLen bounds the declared metadata size a reader will buffer.
const maxMetaLen = 1 << 20

// blockRef locates one sealed block inside a v2 file.
type blockRef struct {
	off     int64 // file offset of the compressed payload
	compLen int
	rawLen  int
	count   int // records in the block
	crc     uint32
}

// Reader is the replay source over an encoded trace. Opening scans
// and verifies the whole file once with bounded buffers — envelope,
// every block's crc seal, inflated length and records, and the sha256
// trailer — and builds an index of block locations; Stream then
// inflates one block at a time on demand, so replaying a 100M-record
// trace holds O(block) memory per stream instead of materializing
// every record. v1 files have no block structure and are
// small legacy recordings, so they are materialized on open and served
// from memory behind the same methods.
//
// Streams of distinct threads are independent and may run on distinct
// goroutines concurrently (reads go through io.ReaderAt). The Reader
// keeps its file handle for its lifetime; Close releases it.
type Reader struct {
	src    io.ReaderAt
	closer io.Closer
	meta   Meta
	counts []uint64
	blocks [][]blockRef // per thread, in file order
	total  uint64
	digest string
	legacy *Trace // v1 files: materialized records
}

// OpenFile opens path as a streaming trace Reader, verifying the whole
// file (structure, every block's seal and records, and the sha256
// trailer) before returning. Damage is a loud, specific error: a
// flipped bit inside a compressed block names that block, and a
// truncated file fails at the point the structure breaks off — never
// a quiet EOF or a panic mid-replay.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	if r.legacy != nil {
		// v1 files are fully materialized at open; nothing will read
		// the file again, so don't pin the descriptor.
		f.Close()
		r.src = nil
		return r, nil
	}
	r.closer = f
	return r, nil
}

// NewReader builds a streaming Reader over size bytes of src,
// performing the same one-pass verification as OpenFile.
func NewReader(src io.ReaderAt, size int64) (*Reader, error) {
	minSize := int64(len(traceMagic) + 8 + sha256.Size)
	if size < minSize {
		return nil, fmt.Errorf("trace: truncated (file shorter than the fixed envelope)")
	}
	var head [12]byte
	if _, err := src.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if !IsTrace(head[:]) {
		return nil, fmt.Errorf("trace: not a skybyte trace (bad magic)")
	}
	switch version := binary.LittleEndian.Uint32(head[8:]); version {
	case 1:
		// Legacy flat layout: no block index to stream from. These are
		// small recordings from before the v2 container; materialize.
		buf := make([]byte, size)
		if _, err := io.ReadFull(io.NewSectionReader(src, 0, size), buf); err != nil {
			return nil, fmt.Errorf("trace: reading v1 file: %w", err)
		}
		legacy, err := decodeTraceV1(buf)
		if err != nil {
			return nil, err
		}
		return &Reader{
			src:    src,
			meta:   legacy.Meta,
			total:  uint64(legacy.Records()),
			digest: TraceDigest(buf),
			legacy: legacy,
		}, nil
	case 2:
		return scanV2(src, size)
	default:
		return nil, fmt.Errorf("trace: codec version %d, this build reads v1-v%d (re-record the trace)", version, CodecVersion)
	}
}

// scanV2 walks a v2 file once, sequentially: it parses the envelope,
// indexes every block, checks each block's crc seal, inflates it and
// decodes its records, and finally compares the sha256 trailer — all
// with one block's worth of buffers.
func scanV2(src io.ReaderAt, size int64) (*Reader, error) {
	bodyLen := size - sha256.Size
	h := sha256.New()
	br := bufio.NewReaderSize(io.TeeReader(io.NewSectionReader(src, 0, bodyLen), h), 64<<10)
	off := int64(0)
	need := func(buf []byte, what string) error {
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("trace: truncated inside %s", what)
		}
		off += int64(len(buf))
		return nil
	}
	var fixed [16]byte // magic[8] | u32 version | u32 metaLen
	if err := need(fixed[:], "the header"); err != nil {
		return nil, err
	}
	metaLen := binary.LittleEndian.Uint32(fixed[12:])
	if metaLen > maxMetaLen {
		return nil, fmt.Errorf("trace: metadata block of %d bytes (damaged length field?)", metaLen)
	}
	metaBuf := make([]byte, metaLen)
	if err := need(metaBuf, "the metadata block"); err != nil {
		return nil, err
	}
	r := &Reader{src: src}
	if err := json.Unmarshal(metaBuf, &r.meta); err != nil {
		return nil, fmt.Errorf("trace: bad metadata: %w", err)
	}
	var u32 [4]byte
	if err := need(u32[:], "the header"); err != nil {
		return nil, err
	}
	threads := binary.LittleEndian.Uint32(u32[:])
	if threads == 0 {
		return nil, fmt.Errorf("trace: no thread streams")
	}
	if int64(threads)*8 > bodyLen-off {
		return nil, fmt.Errorf("trace: truncated inside the thread table")
	}
	r.counts = make([]uint64, threads)
	r.blocks = make([][]blockRef, threads)
	var u64 [8]byte
	for ti := range r.counts {
		if err := need(u64[:], "the thread table"); err != nil {
			return nil, err
		}
		r.counts[ti] = binary.LittleEndian.Uint64(u64[:])
		r.total += r.counts[ti]
	}
	readUvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(countingByteReader{br, &off})
		if err != nil {
			return 0, fmt.Errorf("trace: truncated inside %s", what)
		}
		return v, nil
	}
	seen := make([]uint64, threads)
	var comp []byte
	var inf inflater
	for bi := 0; ; bi++ {
		tag, err := readUvarint("the block index")
		if err != nil {
			return nil, err
		}
		if tag == 0 {
			break // sentinel: no more blocks
		}
		ti := tag - 1
		if ti >= uint64(threads) {
			return nil, fmt.Errorf("trace: block %d names thread %d of %d (damaged header?)", bi, ti, threads)
		}
		count, err := readUvarint("a block header")
		if err != nil {
			return nil, err
		}
		rawLen, err := readUvarint("a block header")
		if err != nil {
			return nil, err
		}
		compLen, err := readUvarint("a block header")
		if err != nil {
			return nil, err
		}
		// Bound every declared size before any arithmetic on it: these
		// are untrusted inputs, and a huge value must fail here as a
		// named error, not wrap around a check (count*2), go negative
		// in an int64 comparison, or reach an allocation. Encoded
		// blocks stay far below maxBlockRaw on both axes (deflate
		// output of <= blockRawTarget raw bytes never nears it).
		if count == 0 || rawLen == 0 || compLen == 0 ||
			rawLen > maxBlockRaw || compLen > maxBlockRaw || count > rawLen/2 {
			return nil, fmt.Errorf("trace: block %d of thread %d declares impossible sizes (%d records, %d raw, %d compressed bytes)",
				bi, ti, count, rawLen, compLen)
		}
		if int64(compLen) > bodyLen-off-4 {
			return nil, fmt.Errorf("trace: truncated inside block %d of thread %d", bi, ti)
		}
		if err := need(u32[:], "a block header"); err != nil {
			return nil, err
		}
		want := binary.LittleEndian.Uint32(u32[:])
		ref := blockRef{off: off, compLen: int(compLen), rawLen: int(rawLen), count: int(count), crc: want}
		if cap(comp) < ref.compLen {
			comp = make([]byte, ref.compLen)
		}
		comp = comp[:ref.compLen]
		if err := need(comp, fmt.Sprintf("block %d of thread %d", bi, ti)); err != nil {
			return nil, err
		}
		if crc32.Checksum(comp, crcTable) != want {
			return nil, fmt.Errorf("trace: block %d of thread %d is damaged (crc mismatch; the file was altered after recording)", bi, ti)
		}
		// The seal only proves the payload is what the writer sealed;
		// inflate and decode it too, so a block whose content is
		// malformed fails here, named, instead of panicking mid-replay.
		raw, err := inf.inflate(comp, ref.rawLen)
		if err == nil {
			err = checkRecords(raw, ref.count)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: block %d of thread %d: %w", bi, ti, err)
		}
		seen[ti] += count
		r.blocks[ti] = append(r.blocks[ti], ref)
	}
	if off != bodyLen {
		return nil, fmt.Errorf("trace: %d trailing bytes after the block sentinel", bodyLen-off)
	}
	for ti, want := range r.counts {
		if seen[ti] != want {
			return nil, fmt.Errorf("trace: thread %d declares %d records but its blocks carry %d", ti, want, seen[ti])
		}
	}
	var trailer [sha256.Size]byte
	if _, err := src.ReadAt(trailer[:], bodyLen); err != nil {
		return nil, fmt.Errorf("trace: reading the checksum trailer: %w", err)
	}
	if got := h.Sum(nil); !bytes.Equal(got, trailer[:]) {
		return nil, fmt.Errorf("trace: corrupt (checksum mismatch outside the sealed blocks: header, metadata, or a block seal was altered)")
	}
	h.Write(trailer[:])
	r.digest = fmt.Sprintf("v2:%s", hex.EncodeToString(h.Sum(nil)))
	return r, nil
}

// countingByteReader adapts a bufio.Reader for binary.ReadUvarint
// while keeping the scan offset honest.
type countingByteReader struct {
	br  *bufio.Reader
	off *int64
}

func (c countingByteReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		*c.off++
	}
	return b, err
}

// TraceMeta returns the recorded metadata.
func (r *Reader) TraceMeta() Meta { return r.meta }

// NumThreads returns the recorded thread-stream count (>= 1).
func (r *Reader) NumThreads() int {
	if r.legacy != nil {
		return len(r.legacy.Threads)
	}
	return len(r.counts)
}

// NumRecords returns the total record count across all threads.
func (r *Reader) NumRecords() uint64 { return r.total }

// Digest returns the file's content identity — identical to
// TraceDigest of the encoded bytes, computed during the open scan
// without materializing the file.
func (r *Reader) Digest() string { return r.digest }

// Close releases the underlying file handle, when the Reader owns one
// (OpenFile). Streams must not be advanced after Close.
func (r *Reader) Close() error {
	if r.closer != nil {
		err := r.closer.Close()
		r.closer = nil
		return err
	}
	return nil
}

// Stream replays thread's records as a lazily decoded walk of its
// blocks. Threads wrap modulo the recorded count, so a trace recorded
// with fewer threads than a run schedules still feeds every software
// thread. Each returned stream owns its own block buffers, so
// concurrent replays of distinct threads are safe; memory per stream
// stays bounded by one block.
func (r *Reader) Stream(thread int) Stream {
	if r.legacy != nil {
		return r.legacy.Stream(thread)
	}
	return &blockStream{r: r, blocks: r.blocks[thread%len(r.blocks)]}
}

// Materialize decodes every record into an in-memory Trace — the
// DecodeTrace path for callers that need the records as slices (e.g.
// re-encoding). Replay does not need it; use Stream.
func (r *Reader) Materialize() (*Trace, error) {
	if r.legacy != nil {
		cp := &Trace{Meta: r.legacy.Meta, Threads: r.legacy.Threads}
		return cp, nil
	}
	t := &Trace{Meta: r.meta}
	for ti := range r.blocks {
		recs := make([]Record, 0, r.counts[ti])
		st := r.Stream(ti)
		for {
			rec, ok := st.Next()
			if !ok {
				break
			}
			recs = append(recs, rec)
		}
		if uint64(len(recs)) != r.counts[ti] {
			return nil, fmt.Errorf("trace: thread %d streamed %d of %d records", ti, len(recs), r.counts[ti])
		}
		t.Threads = append(t.Threads, recs)
	}
	return t, nil
}

// blockStream walks one thread's blocks, inflating one at a time and
// decoding records on demand. Open-time verification has already
// inflated and decoded every block, so a failure here means the file
// changed under a live Reader — an unrecoverable environment error the
// Stream interface has no channel for; it panics with the block's
// identity rather than replaying damaged records.
type blockStream struct {
	r      *Reader
	blocks []blockRef
	bi     int    // next block to load
	raw    []byte // current block, inflated
	pos    int    // cursor in raw
	left   int    // records remaining in the current block
	comp   []byte // scratch: compressed payload
	inf    inflater
}

// Next implements Stream.
func (s *blockStream) Next() (Record, bool) {
	for s.left == 0 {
		if s.bi >= len(s.blocks) {
			return Record{}, false
		}
		s.load(s.blocks[s.bi])
		s.bi++
	}
	rec, pos, err := decodeRecord(s.raw, s.pos)
	if err != nil {
		panic(fmt.Sprintf("trace: block %d: %v (file changed under a live reader?)", s.bi-1, err))
	}
	s.pos = pos
	s.left--
	if s.left == 0 && s.pos != len(s.raw) {
		panic(fmt.Sprintf("trace: block %d carries %d bytes beyond its declared records (file changed under a live reader?)", s.bi-1, len(s.raw)-s.pos))
	}
	return rec, true
}

// load reads, re-seals, and inflates one block into s.raw.
func (s *blockStream) load(ref blockRef) {
	if cap(s.comp) < ref.compLen {
		s.comp = make([]byte, ref.compLen)
	}
	comp := s.comp[:ref.compLen]
	if _, err := s.r.src.ReadAt(comp, ref.off); err != nil {
		panic(fmt.Sprintf("trace: reading block at offset %d: %v", ref.off, err))
	}
	if crc := crc32.Checksum(comp, crcTable); crc != ref.crc {
		panic(fmt.Sprintf("trace: block at offset %d is damaged (crc mismatch; file changed under a live reader)", ref.off))
	}
	raw, err := s.inf.inflate(comp, ref.rawLen)
	if err != nil {
		panic(fmt.Sprintf("trace: block at offset %d: %v (file changed under a live reader?)", ref.off, err))
	}
	s.raw = raw
	s.pos = 0
	s.left = ref.count
}

// inflater decompresses block payloads, reusing one flate reader and
// one output buffer across blocks.
type inflater struct {
	fr  io.ReadCloser
	raw []byte
}

// inflate decompresses comp, which must inflate to exactly rawLen
// bytes and end its deflate stream there. The returned slice is valid
// until the next call.
func (z *inflater) inflate(comp []byte, rawLen int) ([]byte, error) {
	if z.fr == nil {
		z.fr = flate.NewReader(bytes.NewReader(comp))
	} else if err := z.fr.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return nil, fmt.Errorf("resetting inflater: %w", err)
	}
	if cap(z.raw) < rawLen {
		z.raw = make([]byte, rawLen)
	}
	z.raw = z.raw[:rawLen]
	if _, err := io.ReadFull(z.fr, z.raw); err != nil {
		return nil, fmt.Errorf("inflating to its declared %d bytes: %w", rawLen, err)
	}
	var one [1]byte
	if n, err := z.fr.Read(one[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("payload does not end at its declared %d bytes", rawLen)
	}
	return z.raw, nil
}

// checkRecords decodes every record of an inflated block: exactly
// count well-formed records must fill raw.
func checkRecords(raw []byte, count int) error {
	pos := 0
	for i := 0; i < count; i++ {
		_, next, err := decodeRecord(raw, pos)
		if err != nil {
			return fmt.Errorf("record %d of %d: %w", i, count, err)
		}
		pos = next
	}
	if pos != len(raw) {
		return fmt.Errorf("carries %d bytes beyond its declared %d records", len(raw)-pos, count)
	}
	return nil
}
