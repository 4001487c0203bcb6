//go:build linux && (amd64 || arm64)

// Zero-copy pool mapping. linux/{amd64,arm64} are little-endian and allow
// unaligned loads, and the pool encoding places the scores section at an
// 8-byte-aligned offset of the page-aligned mapping, so the scores column
// can be aliased directly as []float64 without copying or byte-swapping.
// Other platforms take the streaming decode fallback in
// mmap_stub.go/store.go.

package poolstore

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// mmapSupported reports whether this build can serve pools straight off a
// read-only memory mapping.
const mmapSupported = true

// mapping is one read-only mmap of an immutable pool file. data stays valid
// until unmap; the store's refcount pins the mapping while any session
// aliases its columns.
type mapping struct {
	data []byte
}

// mapPoolFile maps the pool file at path read-only, returning the mapping
// over its full contents.
func mapPoolFile(path string) (*mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size <= 0 || size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("poolstore: cannot map %d-byte pool file", size)
	}
	// MAP_SHARED with PROT_READ: residency is governed by the page cache, so
	// an idle mapped pool costs address space, not wired RAM, and the kernel
	// reclaims cold pages under pressure without the store doing anything.
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("poolstore: mmap: %w", err)
	}
	return &mapping{data: data}, nil
}

// unmap releases the mapping. The caller must guarantee no live references
// to the mapped bytes remain (the store only unmaps entries with refs == 0,
// under the store lock).
func (m *mapping) unmap() error {
	data := m.data
	m.data = nil
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}

// aliasScores reinterprets the scores section of the mapped encoding as a
// []float64 without copying. The scores start at codecHeaderSize, a multiple
// of 8 within the page-aligned mapping; parseHeader has verified the layout
// before the store ever calls this.
func (m *mapping) aliasScores(lay poolLayout) []float64 {
	raw := m.data[codecHeaderSize:lay.scoresEnd()]
	return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), lay.n)
}
