package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Segment framing, version 2 (the sharded-lane format, the only one this
// package reads or writes). Each record is
//
//	uint32 little-endian payload length
//	uint32 little-endian CRC-32C (Castagnoli) of the 4 extension bytes + payload
//	uint16 little-endian shard tag (the lane the record belongs to)
//	uint8  record format version (recordVersion)
//	uint8  reserved (zero)
//	payload (JSON-encoded session.Event)
//
// written with a single write(2), so a crash can only leave a truncated
// suffix — never interleave records. The CRC covers the shard tag and
// version byte as well as the payload, so a flipped tag can never silently
// route a record into the wrong lane. The reader treats a short or
// CRC-mismatching record at the end of a lane's newest segment as a torn
// write and drops it; the same damage anywhere else is real corruption and
// fatal, and a CRC-valid record whose version or shard tag is out of range
// is rejected outright (never silently merged).

const (
	recordHeaderSize = 12
	// recordVersion is the record and directory format version; version 1
	// journals (no lanes, no shard tags) are refused at Open by file name.
	recordVersion = 2
	// maxRecordSize bounds one record's payload; an inline create event (no
	// pool store attached) embeds the session's whole pool, so the cap is
	// generous. With a pool store, create records carry only the pool's
	// content hash and stay O(1) regardless of pool size. Journal.Append
	// enforces the cap (and with it the uint32 length field): a larger
	// payload is rejected before it is written, never acknowledged and then
	// unreadable at replay.
	maxRecordSize = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord frames payload onto buf in the v2 format, tagged with the
// given shard, and returns the extended buffer.
func appendRecord(buf []byte, shard int, payload []byte) []byte {
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint16(hdr[8:10], uint16(shard))
	hdr[10] = recordVersion
	hdr[11] = 0
	crc := crc32.Checksum(hdr[8:12], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	return append(append(buf, hdr[:]...), payload...)
}

// errRecord rejects a CRC-valid record whose header extension is
// semantically invalid (unknown version, out-of-range shard tag). The CRC
// proves a writer framed it deliberately, so this is never classified as a
// torn tail: replay refuses the log rather than silently merging or
// truncating it.
func errRecord(off int, format string, args ...any) error {
	return fmt.Errorf("record at offset %d: %s", off, fmt.Sprintf(format, args...))
}

// scanRecords walks the v2 framed records in data, calling fn on each
// (shard, payload). lanes bounds the acceptable shard tags. It returns the
// number of cleanly-framed bytes consumed and whether the remainder is torn
// (short header, impossible length, short payload, or CRC mismatch). A
// CRC-valid record with an unknown version or an out-of-range shard tag, or
// a non-nil fn error, aborts the scan and is returned as err with
// torn == false.
func scanRecords(data []byte, lanes int, fn func(shard int, payload []byte) error) (consumed int, torn bool, err error) {
	off := 0
	for {
		rest := len(data) - off
		if rest == 0 {
			return off, false, nil
		}
		if rest < recordHeaderSize {
			return off, true, nil
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		// The writer never frames an empty payload (events are JSON), but a
		// crash can leave a zero-filled tail whose zero bytes would pass the
		// CRC of an empty record; classify it as torn, not as a record.
		if n == 0 || n > maxRecordSize || int(n) > rest-recordHeaderSize {
			return off, true, nil
		}
		ext := data[off+8 : off+12]
		payload := data[off+recordHeaderSize : off+recordHeaderSize+int(n)]
		sum := crc32.Checksum(ext, castagnoli)
		sum = crc32.Update(sum, castagnoli, payload)
		if sum != crc {
			return off, true, nil
		}
		if v := ext[2]; v != recordVersion {
			return off, false, errRecord(off, "unknown record version %d", v)
		}
		shard := int(binary.LittleEndian.Uint16(ext[0:2]))
		if shard >= lanes {
			return off, false, errRecord(off, "shard tag %d out of range for a %d-lane journal", shard, lanes)
		}
		if err := fn(shard, payload); err != nil {
			return off, false, err
		}
		off += recordHeaderSize + int(n)
	}
}

// hasValidRecordAfter reports whether a complete, CRC-valid v2 record begins
// at any byte offset past the start of data (offset 0 is the frame that
// already failed). A crash-torn tail always extends to end of file — a
// single write(2) per record means damage from a torn write is a suffix — so
// a valid frame after the damage proves mid-log corruption, which recovery
// must refuse rather than silently truncate acknowledged records away. Tag
// and version validity are irrelevant here: any CRC-valid frame proves a
// writer wrote past the damage.
func hasValidRecordAfter(data []byte) bool {
	for off := 1; off+recordHeaderSize <= len(data); off++ {
		n := binary.LittleEndian.Uint32(data[off : off+4])
		if n == 0 || n > maxRecordSize || off+recordHeaderSize+int(n) > len(data) {
			continue
		}
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		sum := crc32.Checksum(data[off+8:off+12], castagnoli)
		sum = crc32.Update(sum, castagnoli, data[off+recordHeaderSize:off+recordHeaderSize+int(n)])
		if sum == crc {
			return true
		}
	}
	return false
}

// File naming. Version 2 journals multiplex N lanes under one directory:
// lane segments are wal-<3-digit lane>-<16-digit index>.log and per-lane
// compaction snapshots snap-<3-digit lane>-<16-digit boundary>.json, where
// the boundary is the first segment of that lane NOT folded into the
// snapshot. wal-meta.json records the journal's format version and lane
// count. Version 1 journals named their single segment stream
// wal-<16-digit index>.log and snapshots snap-<16-digit boundary>.json;
// isV1Name recognises those names so Open can refuse them.
const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".json"
	metaName       = "wal-meta.json"
)

func segmentName(lane int, idx uint64) string {
	return fmt.Sprintf("wal-%03d-%016d.log", lane, idx)
}

func snapshotName(lane int, idx uint64) string {
	return fmt.Sprintf("snap-%03d-%016d.json", lane, idx)
}

// isV1Name reports whether name is a version 1 segment (wal-<n>.log) or
// snapshot (snap-<n>.json): the un-lane-qualified names Open refuses.
func isV1Name(name string) bool {
	for _, p := range [...][2]string{{segmentPrefix, segmentSuffix}, {snapshotPrefix, snapshotSuffix}} {
		if strings.HasPrefix(name, p[0]) && strings.HasSuffix(name, p[1]) {
			_, err := strconv.ParseUint(name[len(p[0]):len(name)-len(p[1])], 10, 64)
			return err == nil
		}
	}
	return false
}

// parseLaneIndexed extracts (lane, index) from a v2 lane-qualified file
// name such as wal-007-0000000000000003.log.
func parseLaneIndexed(name, prefix, suffix string) (lane int, idx uint64, ok bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	dash := strings.IndexByte(mid, '-')
	if dash <= 0 {
		return 0, 0, false
	}
	l, err := strconv.ParseUint(mid[:dash], 10, 16)
	if err != nil {
		return 0, 0, false
	}
	idx, err = strconv.ParseUint(mid[dash+1:], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return int(l), idx, true
}

// metaFile is the on-disk form of wal-meta.json: the journal's format
// version (always recordVersion) and its fixed lane count. The lane count
// is chosen when the journal is created and never changes — a session's
// records must all live in one lane for per-lane replay to preserve its
// event order, so re-sharding an existing journal is refused at Open.
type metaFile struct {
	Version int `json:"version"`
	Lanes   int `json:"lanes"`
}

// truncateDurable truncates path to size and makes the truncation durable:
// fsync through the file handle (the new length is inode metadata) and fsync
// the parent directory for good measure. Used when recovery drops a torn
// tail — the shorter file must be on stable storage before this boot
// creates new segments, or a power cut could resurrect the torn suffix
// mid-log.
func truncateDurable(path string, size int64, dir string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so freshly created/renamed entries are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory: write, fsync, rename into place, fsync the directory. The temp
// file is removed on every failure path, so aborted writes leave no litter.
// Used for WAL compaction snapshots and by cmd/oasis-server's -snapshot
// persistence.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}
