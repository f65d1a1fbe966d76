package kdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"mlds/internal/abdm"
	"mlds/internal/pager"
)

// Persisted index image.
//
// A checkpoint of a backed store serialises the store's committed access
// structures — the primary RID map, the heap's free-space map, and the
// per-attribute inverted indexes over committed state — into a chain of
// blob pages inside the page file, and records the chain's head in the
// generation's metadata (pager.Meta.IndexRoot). OpenBacked then rebuilds
// the store by reading O(index pages) instead of scanning O(heap pages),
// and no record body is materialised at all: the live maps start with nil
// bodies that point-reads and scans page in on demand through the buffer
// pool. The one generation without an image (Meta.HasIndex false) that
// OpenBacked mounts is the empty one a fresh page file starts with.
//
// Image payload layout (all integers varint/uvarint unless noted):
//
//	magic "KIM1"
//	uvarint maxID                      record-id high water
//	uvarint nFiles; per file: uvarint len, name
//	uvarint nRecords; per record, sorted by id:
//	  uvarint idDelta, uvarint fileIdx, uvarint ridPage, uvarint ridSlot
//	uvarint nAvail; per heap page, sorted by page id:
//	  uvarint pageDelta, uvarint availBytes
//	byte indexed (0 = store ran WithoutIndexes, no attr section follows)
//	if indexed: uvarint nAttrs; per attr:
//	  uvarint len(name), name
//	  uvarint nValues; per distinct value, in value order (readers accept any):
//	    value (kind byte + payload, the record codec's value form)
//	    uvarint nIDs; per id, sorted: uvarint idDelta

var imageMagic = []byte("KIM1")

// errBadImage reports an index image that cannot be decoded.
var errBadImage = errors.New("kdb: corrupt index image")

// appendValue encodes one abdm value as the record codec does: a kind byte
// followed by the kind's payload.
func appendValue(buf []byte, v abdm.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case abdm.KindInt:
		buf = binary.AppendVarint(buf, v.AsInt())
	case abdm.KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
	case abdm.KindString:
		s := v.AsString()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// readValue decodes one value written by appendValue, returning the rest of
// the buffer. A string value is interned through names (which may be nil).
func readValue(buf []byte, names *nameTable) (abdm.Value, []byte, error) {
	if len(buf) < 1 {
		return abdm.Value{}, nil, errShortRecord
	}
	kind := abdm.Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case abdm.KindNull:
		return abdm.Null(), buf, nil
	case abdm.KindInt:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return abdm.Value{}, nil, errShortRecord
		}
		return abdm.Int(v), buf[n:], nil
	case abdm.KindFloat:
		if len(buf) < 8 {
			return abdm.Value{}, nil, errShortRecord
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		return abdm.Float(f), buf[8:], nil
	case abdm.KindString:
		ln, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < ln {
			return abdm.Value{}, nil, errShortRecord
		}
		return abdm.String(names.intern(buf[n : n+int(ln)])), buf[n+int(ln):], nil
	default:
		return abdm.Value{}, nil, fmt.Errorf("kdb: unknown value kind %d", kind)
	}
}

// storeImage is the decoded form of a persisted index image.
type storeImage struct {
	maxID   uint64
	rids    map[abdm.RecordID]pager.RID
	fileOf  map[abdm.RecordID]string
	avail   map[uint32]int
	indexed bool
	indexes map[string]*attrIndex
}

// imageCache is the last image payload a checkpoint built and where its
// sections lie in it: the file table with the primary map, and one section
// per committed attribute index (its name included). The next encode copies
// every section still marked clean and re-encodes only the others, so a
// checkpoint costs in proportion to what was written since the last one;
// the header, the free-space map and the attribute count are written every
// time. Write-throughs mark sections stale under the store lock; the
// checkpoint fence keeps them from running while encode reads the cache.
// The result is byte-identical to what an empty cache encodes from the same
// structures.
type imageCache struct {
	payload []byte
	rids    span            // file table + primary map; empty when stale
	attrs   map[string]span // per attribute; absent when stale
}

// span is a byte range [off, end) of the cached payload.
type span struct{ off, end int }

// staleRIDs marks the file table and primary map for re-encoding.
func (c *imageCache) staleRIDs() { c.rids = span{} }

// staleAttr marks one attribute's section for re-encoding.
func (c *imageCache) staleAttr(attr string) { delete(c.attrs, attr) }

// encode builds the image payload of the given structures, reusing the
// clean sections of the last one, and keeps the result as the new cache.
// Callers guarantee the inputs are frozen (the checkpoint fence is up).
func (c *imageCache) encode(maxID uint64, rids map[abdm.RecordID]pager.RID,
	fileOf map[abdm.RecordID]string, avail map[uint32]int,
	indexed bool, indexes map[string]*attrIndex) []byte {

	// Sized from the last payload, with a little room for growth: the buffer
	// is kept as the next cache, so slack costs memory until then.
	buf := make([]byte, 0, len(c.payload)+len(c.payload)/64)
	buf = append(buf, imageMagic...)
	buf = binary.AppendUvarint(buf, maxID)

	ridSpan := span{off: len(buf)}
	if c.rids.end > c.rids.off {
		buf = append(buf, c.payload[c.rids.off:c.rids.end]...)
	} else {
		buf = appendRIDSection(buf, rids, fileOf)
	}
	ridSpan.end = len(buf)

	// Heap free-space map, delta-coded by page id.
	pages := make([]uint32, 0, len(avail))
	for p := range avail {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	buf = binary.AppendUvarint(buf, uint64(len(pages)))
	prevPage := uint64(0)
	for _, p := range pages {
		buf = binary.AppendUvarint(buf, uint64(p)-prevPage)
		prevPage = uint64(p)
		buf = binary.AppendUvarint(buf, uint64(avail[p]))
	}

	var attrSpans map[string]span
	if !indexed {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		attrs := make([]string, 0, len(indexes))
		for a, ix := range indexes {
			if len(ix.postings) > 0 {
				attrs = append(attrs, a)
			}
		}
		slices.Sort(attrs)
		buf = binary.AppendUvarint(buf, uint64(len(attrs)))
		attrSpans = make(map[string]span, len(attrs))
		for _, a := range attrs {
			sp := span{off: len(buf)}
			if old, ok := c.attrs[a]; ok {
				buf = append(buf, c.payload[old.off:old.end]...)
			} else {
				buf = appendAttrSection(buf, a, indexes[a])
			}
			sp.end = len(buf)
			attrSpans[a] = sp
		}
	}
	c.payload, c.rids, c.attrs = buf, ridSpan, attrSpans
	return buf
}

// appendRIDSection encodes the file-name table and the primary map.
func appendRIDSection(buf []byte, rids map[abdm.RecordID]pager.RID,
	fileOf map[abdm.RecordID]string) []byte {
	// File-name table, sorted for determinism.
	fileIdx := make(map[string]uint64)
	var fileNames []string
	for _, f := range fileOf {
		if _, ok := fileIdx[f]; !ok {
			fileIdx[f] = 0
			fileNames = append(fileNames, f)
		}
	}
	slices.Sort(fileNames)
	for i, f := range fileNames {
		fileIdx[f] = uint64(i)
	}
	buf = binary.AppendUvarint(buf, uint64(len(fileNames)))
	for _, f := range fileNames {
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
	}

	// Primary map, delta-coded by record id.
	ids := make([]abdm.RecordID, 0, len(rids))
	for id := range rids {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := uint64(0)
	for _, id := range ids {
		rid := rids[id]
		buf = binary.AppendUvarint(buf, uint64(id)-prev)
		prev = uint64(id)
		buf = binary.AppendUvarint(buf, fileIdx[fileOf[id]])
		buf = binary.AppendUvarint(buf, uint64(rid.Page))
		buf = binary.AppendUvarint(buf, uint64(rid.Slot))
	}
	return buf
}

// appendAttrSection encodes one attribute index: its name, then each
// distinct value with its posting list.
func appendAttrSection(buf []byte, attr string, ix *attrIndex) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(attr)))
	buf = append(buf, attr...)
	// Values go out in the index's own value order, which ensureSorted
	// keeps up to date across checkpoints.
	keys := ix.ensureSorted()
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendValue(buf, k.value())
		post := ix.postings[k]
		buf = binary.AppendUvarint(buf, uint64(len(post)))
		prev := uint64(0)
		for _, id := range post {
			buf = binary.AppendUvarint(buf, uint64(id)-prev)
			prev = uint64(id)
		}
	}
	return buf
}

// decodeImage parses an image payload back into access structures.
func decodeImage(buf []byte) (*storeImage, error) {
	if len(buf) < len(imageMagic) || string(buf[:len(imageMagic)]) != string(imageMagic) {
		return nil, fmt.Errorf("%w: bad magic", errBadImage)
	}
	buf = buf[len(imageMagic):]
	u := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated", errBadImage)
		}
		buf = buf[n:]
		return v, nil
	}
	// count reads an entry count. Every entry takes at least size bytes, so
	// a count the bytes left cannot hold is corrupt, not a reason to
	// allocate or loop.
	count := func(size int) (uint64, error) {
		v, err := u()
		if err == nil && v > uint64(len(buf)/size) {
			err = fmt.Errorf("%w: %d entries of %d+ bytes in %d bytes", errBadImage, v, size, len(buf))
		}
		return v, err
	}
	img := &storeImage{}
	var err error
	if img.maxID, err = u(); err != nil {
		return nil, err
	}

	nFiles, err := count(1)
	if err != nil {
		return nil, err
	}
	names := make([]string, nFiles)
	for i := range names {
		ln, err := u()
		if err != nil {
			return nil, err
		}
		if uint64(len(buf)) < ln {
			return nil, fmt.Errorf("%w: truncated file name", errBadImage)
		}
		names[i] = string(buf[:ln])
		buf = buf[ln:]
	}

	nRecs, err := count(4)
	if err != nil {
		return nil, err
	}
	img.rids = make(map[abdm.RecordID]pager.RID, nRecs)
	img.fileOf = make(map[abdm.RecordID]string, nRecs)
	prev := uint64(0)
	for i := uint64(0); i < nRecs; i++ {
		d, err := u()
		if err != nil {
			return nil, err
		}
		prev += d
		fi, err := u()
		if err != nil {
			return nil, err
		}
		if fi >= uint64(len(names)) {
			return nil, fmt.Errorf("%w: file index %d out of range", errBadImage, fi)
		}
		page, err := u()
		if err != nil {
			return nil, err
		}
		slot, err := u()
		if err != nil {
			return nil, err
		}
		id := abdm.RecordID(prev)
		img.rids[id] = pager.RID{Page: uint32(page), Slot: uint16(slot)}
		img.fileOf[id] = names[fi]
	}

	nAvail, err := count(2)
	if err != nil {
		return nil, err
	}
	img.avail = make(map[uint32]int, nAvail)
	prevPage := uint64(0)
	for i := uint64(0); i < nAvail; i++ {
		d, err := u()
		if err != nil {
			return nil, err
		}
		prevPage += d
		a, err := u()
		if err != nil {
			return nil, err
		}
		img.avail[uint32(prevPage)] = int(a)
	}

	if len(buf) < 1 {
		return nil, fmt.Errorf("%w: truncated", errBadImage)
	}
	img.indexed = buf[0] == 1
	buf = buf[1:]
	if !img.indexed {
		return img, nil
	}
	img.indexes = make(map[string]*attrIndex)
	nAttrs, err := count(2)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nAttrs; i++ {
		ln, err := u()
		if err != nil {
			return nil, err
		}
		if uint64(len(buf)) < ln {
			return nil, fmt.Errorf("%w: truncated attr name", errBadImage)
		}
		attr := string(buf[:ln])
		buf = buf[ln:]
		ix := newAttrIndex()
		img.indexes[attr] = ix
		nVals, err := count(2)
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nVals; j++ {
			var v abdm.Value
			v, buf, err = readValue(buf, nil)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", errBadImage, err)
			}
			nIDs, err := count(1)
			if err != nil {
				return nil, err
			}
			prev := uint64(0)
			for k := uint64(0); k < nIDs; k++ {
				d, err := u()
				if err != nil {
					return nil, err
				}
				prev += d
				ix.add(v, abdm.RecordID(prev))
			}
		}
	}
	return img, nil
}

// cloneIndexes deep-copies an attribute-index set; OpenBacked loads the
// image once and seeds both the live and the committed index from it.
func cloneIndexes(src map[string]*attrIndex) map[string]*attrIndex {
	out := make(map[string]*attrIndex, len(src))
	for a, ix := range src {
		cp := &attrIndex{postings: make(map[ikey][]abdm.RecordID, len(ix.postings))}
		for k, post := range ix.postings {
			cp.postings[k] = slices.Clone(post)
		}
		out[a] = cp
	}
	return out
}
