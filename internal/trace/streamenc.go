package trace

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
)

// StreamEncoder builds an encoded trace one record at a time, so a
// producer — an importer parsing a multi-gigabyte external file, a
// recorder draining a generator — never materializes the full record
// slice. It is the only trace writer: EncodeTrace is a thin loop over
// BeginThread/Append/Finish, so a batch encode and a streamed one
// produce identical bytes by construction (same block cuts, same
// deflate state handling), and every digest derived from a trace is
// independent of which path produced it.
//
// Usage: NewStreamEncoder, then for each thread in order BeginThread
// followed by its Appends, then Finish with the file meta (meta is
// only needed at the end, so fields discovered during the pass —
// footprint, write ratio, source digest — can ride in it). The first
// error poisons the encoder; Finish reports it.
//
// Memory: the encoder holds the current raw block (~64 KiB) plus the
// compressed blocks already cut, each in its own exact-size slice, so
// peak heap tracks the encoded size (a few bytes per record) with no
// growth slack, not the 16 B/record of a materialized []Record.
type StreamEncoder struct {
	counts  []uint64 // per-thread record counts, in BeginThread order
	blocks  [][]byte // sealed blocks, in file order
	bodyLen int      // total bytes across blocks
	err     error

	// Block state: the raw payload being accumulated and the shared
	// deflate scratch, reset per block.
	raw        []byte
	blockCount int
	comp       bytes.Buffer
	fw         *flate.Writer
}

// errFinished poisons an encoder whose Finish already ran.
var errFinished = errors.New("trace: stream encode: encoder already finished")

// NewStreamEncoder returns an encoder writing the block-compressed
// layout (CodecVersion).
func NewStreamEncoder() *StreamEncoder {
	e := &StreamEncoder{raw: make([]byte, 0, blockRawTarget+16)}
	// NewWriter only fails on an invalid level; DefaultCompression is valid.
	e.fw, _ = flate.NewWriter(&e.comp, flate.DefaultCompression)
	return e
}

// BeginThread opens the next thread stream; subsequent Appends belong
// to it. Threads are numbered in call order.
func (e *StreamEncoder) BeginThread() {
	if e.err != nil {
		return
	}
	e.flushBlock() // a failure poisons e.err, which Append and Finish report
	e.counts = append(e.counts, 0)
}

// Append encodes one record into the current thread.
func (e *StreamEncoder) Append(r Record) error {
	if e.err != nil {
		return e.err
	}
	if len(e.counts) == 0 {
		e.err = errors.New("trace: stream encode: Append before BeginThread")
		return e.err
	}
	// Cut the block before the append that would pass the target, so
	// cuts land between the same records whatever the caller's batching.
	if len(e.raw) >= blockRawTarget {
		if err := e.flushBlock(); err != nil {
			return err
		}
	}
	raw, err := appendRecord(e.raw, r)
	if err != nil {
		e.err = err
		return err
	}
	e.raw = raw
	e.blockCount++
	e.counts[len(e.counts)-1]++
	return nil
}

// Records returns the total record count appended so far.
func (e *StreamEncoder) Records() uint64 {
	var n uint64
	for _, c := range e.counts {
		n += c
	}
	return n
}

// Threads returns the number of thread streams opened so far.
func (e *StreamEncoder) Threads() int { return len(e.counts) }

// flushBlock deflates the accumulated raw payload and appends one
// sealed block for the current thread. Empty payloads emit nothing (a
// thread with no records has no blocks, matching the reader's
// expectation).
func (e *StreamEncoder) flushBlock() error {
	if e.blockCount == 0 {
		return nil
	}
	e.comp.Reset()
	e.fw.Reset(&e.comp)
	if _, err := e.fw.Write(e.raw); err != nil {
		e.err = fmt.Errorf("trace: encode: deflate: %w", err)
		return e.err
	}
	if err := e.fw.Close(); err != nil {
		e.err = fmt.Errorf("trace: encode: deflate: %w", err)
		return e.err
	}
	var hdr [4*binary.MaxVarintLen64 + 4]byte
	h := binary.AppendUvarint(hdr[:0], uint64(len(e.counts))) // thread+1; 0 is the end sentinel
	h = binary.AppendUvarint(h, uint64(e.blockCount))
	h = binary.AppendUvarint(h, uint64(len(e.raw)))
	h = binary.AppendUvarint(h, uint64(e.comp.Len()))
	h = binary.LittleEndian.AppendUint32(h, crc32.Checksum(e.comp.Bytes(), crcTable))
	blk := make([]byte, 0, len(h)+e.comp.Len())
	blk = append(append(blk, h...), e.comp.Bytes()...)
	e.blocks = append(e.blocks, blk)
	e.bodyLen += len(blk)
	e.raw = e.raw[:0]
	e.blockCount = 0
	return nil
}

// Finish seals the trace and returns the complete file bytes: header
// with meta, the per-thread record counts, the sealed blocks, the
// block sentinel and the sha256 trailer. Every part's size is known
// here, so the file is allocated once at its exact length. The encoder
// cannot be reused afterwards.
func (e *StreamEncoder) Finish(meta Meta) ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	if err := e.flushBlock(); err != nil {
		return nil, err
	}
	if len(e.counts) == 0 {
		return nil, fmt.Errorf("trace: encode: no thread streams")
	}
	m, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("trace: encode meta: %w", err)
	}
	size := len(traceMagic) + 4 + 4 + len(m) + 4 + 8*len(e.counts) + e.bodyLen + 1 + sha256.Size
	b := make([]byte, 0, size)
	b = append(b, traceMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, CodecVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m)))
	b = append(b, m...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.counts)))
	for _, c := range e.counts {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	for _, blk := range e.blocks {
		b = append(b, blk...)
	}
	b = append(b, 0) // block sentinel: uvarint 0
	sum := sha256.Sum256(b)
	b = append(b, sum[:]...)
	e.err = errFinished
	return b, nil
}
