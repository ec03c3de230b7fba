// Package logstore implements a log-structured, concurrent-safe
// store.Backend: replica contents live in append-only segment files,
// metadata mutations append compact records to a write-ahead log, and
// periodic checkpoints bound recovery time. An Add is one segment
// append plus one WAL append, never a rewrite of the metadata table.
//
// On-disk layout under the store directory (see DESIGN.md §10 for the
// full format diagram and recovery algorithm):
//
//	checkpoint.gob      gob snapshot of the metadata index + WAL seq
//	wal-<seq>.log       metadata write-ahead log (rotated at checkpoint)
//	seg-<id>.seg        append-only content segments
//
// Every WAL and segment record carries a CRC32C checksum and explicit
// length, so recovery can detect and truncate a torn tail, and reads
// never surface corrupt content.
package logstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"sort"

	"past/internal/cert"
	"past/internal/id"
	"past/internal/store"
)

// File-format constants. The magics version the format: readers reject
// files whose first 8 bytes differ.
const (
	walMagic = "PASTWAL1"
	segMagic = "PASTSEG1"

	// fileHeaderSize is the length of the magic prefix on both file kinds.
	fileHeaderSize = 8

	// recHeaderSize frames every WAL record: u32 payload length + u32
	// CRC32C of the payload, little-endian.
	recHeaderSize = 8

	// segRecHeaderSize frames every segment record: u32 content length +
	// u32 CRC32C of the content + the fileId, little-endian.
	segRecHeaderSize = 8 + id.FileBytes

	// maxRecordLen is a sanity bound on record payloads; a framed length
	// beyond it is treated as corruption, not an allocation request.
	maxRecordLen = 1 << 30
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recType enumerates the WAL record types.
type recType byte

const (
	recAdd recType = iota + 1 // store a replica (metadata + content location)
	recRemove
	recSetPointer
	recRemovePointer
	recRelocate // compaction moved a content record to a new location
)

func (t recType) String() string {
	switch t {
	case recAdd:
		return "add"
	case recRemove:
		return "remove"
	case recSetPointer:
		return "set-pointer"
	case recRemovePointer:
		return "remove-pointer"
	case recRelocate:
		return "relocate"
	default:
		return fmt.Sprintf("recType(%d)", byte(t))
	}
}

// location addresses one content record inside a segment file.
type location struct {
	Seg uint32 // segment id
	Off int64  // byte offset of the record header within the segment
	Len uint32 // content length
	CRC uint32 // CRC32C of the content
}

// recordSize returns the bytes the record occupies in its segment.
func (l location) recordSize() int64 { return segRecHeaderSize + int64(l.Len) }

// walRecord is one decoded WAL record.
type walRecord struct {
	typ  recType
	file id.File

	// recAdd fields.
	entry      store.Entry // metadata only; Content always nil
	hasContent bool

	// recAdd (when hasContent) and recRelocate.
	loc location

	// recSetPointer fields.
	ptr store.Pointer
}

// Add-record flag bits.
const (
	flagContent = 1 << 0
	flagCert    = 1 << 1
)

// encodeWALPayload renders a record's payload (everything after the
// length+CRC frame).
func encodeWALPayload(r walRecord) ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(r.typ))
	buf = append(buf, r.file[:]...)
	switch r.typ {
	case recAdd:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.entry.Size))
		buf = append(buf, byte(r.entry.Kind))
		buf = append(buf, r.entry.Owner[:]...)
		flags := byte(0)
		if r.hasContent {
			flags |= flagContent
		}
		var certBytes []byte
		if r.entry.Cert != nil {
			var cb bytes.Buffer
			if err := gob.NewEncoder(&cb).Encode(r.entry.Cert); err != nil {
				return nil, fmt.Errorf("logstore: encode cert: %w", err)
			}
			certBytes = cb.Bytes()
			flags |= flagCert
		}
		buf = append(buf, flags)
		if r.hasContent {
			buf = appendLocation(buf, r.loc)
		}
		if certBytes != nil {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(certBytes)))
			buf = append(buf, certBytes...)
		}
	case recRemove, recRemovePointer:
		// fileId only.
	case recSetPointer:
		buf = append(buf, r.ptr.Target[:]...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ptr.Size))
		buf = append(buf, byte(r.ptr.Role))
	case recRelocate:
		buf = appendLocation(buf, r.loc)
	default:
		return nil, fmt.Errorf("logstore: encode unknown record type %d", r.typ)
	}
	return buf, nil
}

func appendLocation(buf []byte, l location) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, l.Seg)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.Off))
	buf = binary.LittleEndian.AppendUint32(buf, l.Len)
	buf = binary.LittleEndian.AppendUint32(buf, l.CRC)
	return buf
}

// decodeWALPayload parses one payload back into a walRecord.
func decodeWALPayload(p []byte) (walRecord, error) {
	var r walRecord
	d := decoder{buf: p}
	r.typ = recType(d.u8())
	d.bytes(r.file[:])
	switch r.typ {
	case recAdd:
		r.entry.File = r.file
		r.entry.Size = int64(d.u64())
		r.entry.Kind = store.Kind(d.u8())
		d.bytes(r.entry.Owner[:])
		flags := d.u8()
		if flags&flagContent != 0 {
			r.hasContent = true
			r.loc = d.location()
		}
		if flags&flagCert != 0 {
			n := d.u32()
			if int64(n) > int64(len(d.buf))-int64(d.off) {
				return r, fmt.Errorf("logstore: cert length %d overruns record", n)
			}
			cb := make([]byte, n)
			d.bytes(cb)
			var fc cert.FileCertificate
			if err := gob.NewDecoder(bytes.NewReader(cb)).Decode(&fc); err != nil {
				return r, fmt.Errorf("logstore: decode cert: %w", err)
			}
			r.entry.Cert = &fc
		}
	case recRemove, recRemovePointer:
		// fileId only.
	case recSetPointer:
		r.ptr.File = r.file
		d.bytes(r.ptr.Target[:])
		r.ptr.Size = int64(d.u64())
		r.ptr.Role = store.PtrRole(d.u8())
	case recRelocate:
		r.loc = d.location()
	default:
		return r, fmt.Errorf("logstore: unknown record type %d", byte(r.typ))
	}
	if d.err != nil {
		return r, fmt.Errorf("logstore: short %s record: %w", r.typ, d.err)
	}
	return r, nil
}

// frameWALRecord wraps a payload in the [len][crc] frame.
func frameWALRecord(payload []byte) []byte {
	buf := make([]byte, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	copy(buf[recHeaderSize:], payload)
	return buf
}

// encodeSegRecord renders one content record: frame + fileId + content.
func encodeSegRecord(f id.File, content []byte) ([]byte, uint32) {
	crc := crc32.Checksum(content, castagnoli)
	buf := make([]byte, segRecHeaderSize+len(content))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(content)))
	binary.LittleEndian.PutUint32(buf[4:], crc)
	copy(buf[8:], f[:])
	copy(buf[segRecHeaderSize:], content)
	return buf, crc
}

// parseSegRecord splits a full segment record buffer (header included)
// into its fields. It validates only framing; the caller compares the
// CRC against the content.
func parseSegRecord(buf []byte) (clen, crc uint32, f id.File, content []byte, err error) {
	if len(buf) < segRecHeaderSize {
		return 0, 0, f, nil, fmt.Errorf("logstore: segment record shorter than header (%d bytes)", len(buf))
	}
	clen = binary.LittleEndian.Uint32(buf[0:])
	crc = binary.LittleEndian.Uint32(buf[4:])
	copy(f[:], buf[8:segRecHeaderSize])
	if int64(len(buf)-segRecHeaderSize) < int64(clen) {
		return clen, crc, f, nil, fmt.Errorf("logstore: segment record content truncated (want %d, have %d)", clen, len(buf)-segRecHeaderSize)
	}
	content = buf[segRecHeaderSize : segRecHeaderSize+int(clen)]
	return clen, crc, f, content, nil
}

// parseSegHeader decodes just the fixed header of a segment record,
// for scans that only need lengths and file ids (compaction).
func parseSegHeader(buf []byte) (clen, crc uint32, f id.File, err error) {
	if len(buf) < segRecHeaderSize {
		return 0, 0, f, fmt.Errorf("logstore: segment record shorter than header (%d bytes)", len(buf))
	}
	clen = binary.LittleEndian.Uint32(buf[0:])
	crc = binary.LittleEndian.Uint32(buf[4:])
	copy(f[:], buf[8:segRecHeaderSize])
	return clen, crc, f, nil
}

func crc32Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// sortEntries orders entries by fileId, matching the in-memory store's
// deterministic scan order.
func sortEntries(out []store.Entry) {
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].File[:], out[j].File[:]) < 0
	})
}

// sortPointers orders pointers by fileId.
func sortPointers(out []store.Pointer) {
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].File[:], out[j].File[:]) < 0
	})
}

// decoder is a bounds-checked little-endian reader. After a short read
// err is set and subsequent reads return zeros, so callers can decode
// straight-line and check err once.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("need %d bytes at offset %d, have %d", n, d.off, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) bytes(dst []byte) {
	b := d.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

func (d *decoder) location() location {
	return location{
		Seg: d.u32(),
		Off: int64(d.u64()),
		Len: d.u32(),
		CRC: d.u32(),
	}
}
