package pager

import (
	"encoding/binary"
	"fmt"
)

// Blob pages carry raw payloads — the persisted index structures the store
// writes at checkpoint time — in the same logical page space as the record
// heap. A kind byte in the shared page header (byte 10, reserved and always
// zero in slotted heap pages) tells the heap's scans to skip them.
//
// Blob page layout:
//
//	[0:4)   crc32 (castagnoli) over page[4:], set at write time
//	[4:8)   payload length
//	[8:10)  unused
//	[10]    page kind (PageKindIndex)
//	[11]    unused
//	[12:16) next page of the chain + 1; 0 ends the chain
//	[16:)   payload
const (
	blobHeaderSize = 16
	pageKindOff    = 10
)

// Page kinds, stored in byte 10 of every page.
const (
	PageKindHeap  byte = 0 // slotted record page owned by the heap
	PageKindIndex byte = 1 // raw blob page owned by the persisted index
)

// PageKindOf reports the kind byte of a raw page image.
func PageKindOf(data []byte) byte { return data[pageKindOff] }

// BlobCapacity is the payload bytes a single blob page holds.
func BlobCapacity(pageSize int) int { return pageSize - blobHeaderSize }

// writeBlobPage writes payload into a fresh logical page as one blob page
// whose next-pointer is next (page id + 1; 0 for none).
func (f *File) writeBlobPage(payload []byte, next uint32) (uint32, error) {
	if len(payload) > BlobCapacity(f.pageSize) {
		return 0, fmt.Errorf("pager: blob payload %d bytes exceeds page capacity %d",
			len(payload), BlobCapacity(f.pageSize))
	}
	buf := make([]byte, f.pageSize)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	buf[pageKindOff] = PageKindIndex
	binary.LittleEndian.PutUint32(buf[12:16], next)
	copy(buf[blobHeaderSize:], payload)
	id := f.Alloc()
	if err := f.WritePage(id, buf); err != nil {
		return 0, err
	}
	return id, nil
}

// WriteBlob stores payload as a chain of freshly allocated blob pages,
// bypassing the buffer pool, and returns their ids head-first. The pages
// become durable at the next Commit; when the blob is superseded the caller
// frees them with FreeLogical.
func (f *File) WriteBlob(payload []byte) ([]uint32, error) {
	capacity := BlobCapacity(f.PageSize())
	var chunks [][]byte
	for len(payload) > capacity {
		chunks = append(chunks, payload[:capacity])
		payload = payload[capacity:]
	}
	chunks = append(chunks, payload)
	// The last chunk is written first so every page knows its successor.
	ids := make([]uint32, len(chunks))
	next := uint32(0)
	for i := len(chunks) - 1; i >= 0; i-- {
		id, err := f.writeBlobPage(chunks[i], next)
		if err != nil {
			return nil, err
		}
		ids[i] = id
		next = id + 1
	}
	return ids, nil
}

// ReadBlob reads a blob chain through the pool, returning the reassembled
// payload and the chain's page ids head-first.
func ReadBlob(pool *Pool, head uint32) ([]byte, []uint32, error) {
	var out []byte
	var ids []uint32
	next := head + 1
	for next != 0 {
		id := next - 1
		if len(ids) >= pool.File().Pages() {
			return nil, nil, fmt.Errorf("%w: blob chain cycle at page %d", ErrCorrupt, id)
		}
		ids = append(ids, id)
		payload, nx, err := readBlobPage(pool, id)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, payload...)
		next = nx
	}
	return out, ids, nil
}

// ReadBlobPage pins one blob page and returns a copy of its payload.
func ReadBlobPage(pool *Pool, id uint32) ([]byte, error) {
	payload, _, err := readBlobPage(pool, id)
	return payload, err
}

func readBlobPage(pool *Pool, id uint32) (payload []byte, next uint32, err error) {
	data, err := pool.Pin(id)
	if err != nil {
		return nil, 0, err
	}
	defer pool.Unpin(id, false)
	if PageKindOf(data) != PageKindIndex {
		return nil, 0, fmt.Errorf("%w: page %d is not a blob page", ErrCorrupt, id)
	}
	n := int(binary.LittleEndian.Uint32(data[4:8]))
	if n > len(data)-blobHeaderSize {
		return nil, 0, fmt.Errorf("%w: blob page %d claims %d payload bytes", ErrCorrupt, id, n)
	}
	payload = make([]byte, n)
	copy(payload, data[blobHeaderSize:blobHeaderSize+n])
	return payload, binary.LittleEndian.Uint32(data[12:16]), nil
}
