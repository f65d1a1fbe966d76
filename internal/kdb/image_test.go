package kdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/pager"
)

// goldenStore builds the small backed store the checked-in KIM1 image was
// written from: two files; string, int, float and NULL index values; and
// record ids with gaps. It is deterministic, so every build commits the
// same structures.
func goldenStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := CreateBacked(path, testDir(t), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		dept := abdm.String(schedDepts[i%len(schedDepts)])
		if i%5 == 4 {
			dept = abdm.Null()
		}
		rec := abdm.NewRecord("course",
			abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("T%d", i%4))},
			abdm.Keyword{Attr: "dept", Val: dept},
			abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(i%3-1) * 300)},
			abdm.Keyword{Attr: "rating", Val: abdm.Float(float64(i%5) / 2)},
		)
		if _, err := s.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		rec := abdm.NewRecord("person",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("P%d", i))},
			abdm.Keyword{Attr: "age", Val: abdm.Int(int64(20 + i))},
		)
		if _, err := s.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.DropRecords([]abdm.RecordID{3, 4, 9, 14}); err != nil {
		t.Fatal(err)
	}
	return s
}

// encodeImage serialises the access structures from scratch, through an
// empty section cache.
func encodeImage(maxID uint64, rids map[abdm.RecordID]pager.RID,
	fileOf map[abdm.RecordID]string, avail map[uint32]int,
	indexed bool, indexes map[string]*attrIndex) []byte {
	var c imageCache
	return c.encode(maxID, rids, fileOf, avail, indexed, indexes)
}

// imageFromScratch encodes a backed store's committed structures without
// the section cache, and sorts each index's values afresh: the reference
// every cached image must equal.
func imageFromScratch(s *Store) []byte {
	b := s.backing
	return encodeImage(b.maxID, b.rids, b.fileOfC, b.heap.AvailSnapshot(), !s.noIndex, cloneIndexes(b.cIndexes))
}

// imageCached builds the payload the next CheckpointFlush would write, from
// a copy of the store's section cache, so the cache itself is left alone.
func imageCached(s *Store) []byte {
	b := s.backing
	c := b.img
	return c.encode(b.maxID, b.rids, b.fileOfC, b.heap.AvailSnapshot(), !s.noIndex, b.cIndexes)
}

// committedImage reads the image payload of the page file's committed
// generation.
func committedImage(t *testing.T, s *Store) []byte {
	t.Helper()
	payload, _, err := pager.ReadBlob(s.backing.pool, s.backing.file.Meta().IndexRoot)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestImageGoldenKIM1 pins the KIM1 image format to an image written before
// checkpoints kept a section cache: a from-scratch encode reproduces it byte
// for byte, so does the cached path across two checkpoints with one
// attribute rewritten in between, and the image mounts with the store's
// RIDs, files and indexes.
func TestImageGoldenKIM1(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "kim1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	s := goldenStore(t, filepath.Join(t.TempDir(), "g.pgf"))
	if got := imageFromScratch(s); !bytes.Equal(got, golden) {
		t.Fatalf("from-scratch image differs from the golden one:\n got %x\nwant %x", got, golden)
	}
	if err := s.checkpoint(t, pager.Meta{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if got := committedImage(t, s); !bytes.Equal(got, golden) {
		t.Fatalf("first checkpoint image differs from the golden one:\n got %x\nwant %x", got, golden)
	}

	// Move record 1's credits away and back, in place: the credits section
	// is re-encoded, every other section is copied from the first image.
	for _, step := range [][2]int64{{-300, -301}, {-301, -300}} {
		q := abdm.And(
			abdm.Predicate{Attr: "title", Op: abdm.OpEq, Val: abdm.String("T0")},
			abdm.Predicate{Attr: "credits", Op: abdm.OpEq, Val: abdm.Int(step[0])},
		)
		res, err := s.Exec(abdl.NewUpdate(q, abdl.Modifier{Attr: "credits", Val: abdm.Int(step[1])}))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Affected, []abdm.RecordID{1}) {
			t.Fatalf("update touched %v, want [1]", res.Affected)
		}
	}
	if _, ok := s.backing.img.attrs["credits"]; ok {
		t.Fatal("credits section still marked clean after its postings moved")
	}
	if _, ok := s.backing.img.attrs["title"]; !ok || s.backing.img.rids.end == 0 {
		t.Fatal("untouched sections were marked stale")
	}
	if err := s.checkpoint(t, pager.Meta{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if got := committedImage(t, s); !bytes.Equal(got, golden) {
		t.Fatalf("cached checkpoint image differs from the golden one:\n got %x\nwant %x", got, golden)
	}

	// Mount the checked-in image on its own.
	path := filepath.Join(t.TempDir(), "mount.pgf")
	f, err := pager.Create(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := f.WriteBlob(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(pager.Meta{Epoch: 1, HasIndex: true, IndexRoot: pages[0]}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, _, err := OpenBacked(path, testDir(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.CloseBacking()
	if !maps.Equal(m.backing.rids, s.backing.rids) || !maps.Equal(m.fileOf, s.fileOf) {
		t.Fatalf("mounted RIDs %v files %v, want %v %v", m.backing.rids, m.fileOf, s.backing.rids, s.fileOf)
	}
	if len(m.fileOf) != 12 || m.fileOf[2] != "course" || m.fileOf[16] != "person" {
		t.Fatalf("mounted membership %v", m.fileOf)
	}
	if m.backing.maxID != 16 {
		t.Fatalf("mounted id high water %d, want 16", m.backing.maxID)
	}
	if got, want := postingsOf(m.indexes), postingsOf(s.backing.cIndexes); !samePostings(got, want) {
		t.Fatalf("mounted indexes\n%v\nwant\n%v", got, want)
	}
	if got := m.indexes["dept"].lookupEq(abdm.Null()); !slices.Equal(got, []abdm.RecordID{5, 10}) {
		t.Fatalf("NULL dept postings %v, want [5 10]", got)
	}
	if got := m.indexes["rating"].lookupEq(abdm.Float(0.5)); !slices.Equal(got, []abdm.RecordID{2, 7, 12}) {
		t.Fatalf("rating 0.5 postings %v, want [2 7 12]", got)
	}
	if got := imageFromScratch(m); !bytes.Equal(got, golden) {
		t.Fatalf("mounted store re-encodes to\n%x\nwant\n%x", got, golden)
	}
}

// imageSchedule extends the MVCC schedule with the steps that change the
// image's primary map in other ways: updates that relocate a heap cell and
// a record moving to another file.
type imageSchedule struct {
	*mvccSchedule
}

// relocate rewrites dept with a value of random length, so the record's
// heap cell grows or shrinks and often moves to another slot or page.
func (m imageSchedule) relocate(t *testing.T) {
	t.Helper()
	title := fmt.Sprintf("T%d", m.rng.Intn(12))
	dept := abdm.String(strings.Repeat("D", m.rng.Intn(200)))
	txn := m.txn()
	m.exec(t, func() *abdl.Request {
		req := abdl.NewUpdate(courseQuery(title), abdl.Modifier{Attr: "dept", Val: dept})
		req.TxnID = txn
		return req
	})
}

// moveFile imports a committed version of an existing record into the
// other file, as migration does, so its write-through changes the file the
// primary map lists it under.
func (m imageSchedule) moveFile(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	ids := make([]abdm.RecordID, 0, len(s.fileOf))
	for id := range s.fileOf {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	slices.Sort(ids)
	if len(ids) == 0 {
		return
	}
	id := ids[m.rng.Intn(len(ids))]
	rec := abdm.NewRecord("person",
		abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("P%d", m.rng.Intn(4)))},
		abdm.Keyword{Attr: "age", Val: abdm.Int(int64(m.rng.Intn(3)))},
	)
	m.epoch++
	mig := []MigRecord{{File: "person", ID: id, Live: rec, Chain: []MigVersion{{Epoch: m.epoch, Rec: rec}}}}
	if _, err := s.ImportPartition(mig); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointImageMatchesFromScratch: over random schedules of insert,
// in-place update, cell-relocating update, file change, delete, drop,
// commit, abort, GC, fenced checkpoints whose write-throughs queue behind
// the fence, failed flushes and reopens, the payload CheckpointFlush would
// build from its section cache equals a from-scratch encode after every
// step, and every committed image equals the from-scratch encode of the
// structures it was flushed from.
func TestCheckpointImageMatchesFromScratch(t *testing.T) {
	reused := 0
	for seed := int64(1); seed <= 16; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "img.pgf")
		s, err := CreateBacked(path, testDir(t), WithPageSize(512), WithPoolPages(8))
		if err != nil {
			t.Fatal(err)
		}
		m := imageSchedule{&mvccSchedule{rng: rand.New(rand.NewSource(seed)), stores: []*Store{s}, epoch: 1}}
		fenced, flushed := false, false
		for i := 0; i < 400; i++ {
			switch r := m.rng.Intn(40); {
			case r == 0 && !fenced:
				if _, err := s.CheckpointBegin(); err != nil {
					t.Fatal(err)
				}
				fenced, flushed = true, false
			case r <= 2 && fenced && !flushed:
				want := imageFromScratch(s)
				if len(s.backing.img.attrs) > 0 || s.backing.img.rids.end > 0 {
					reused++
				}
				var hole uint32
				failing := m.rng.Intn(4) == 0
				if failing {
					// A page allocated and never written makes the
					// generation's commit fail after the image is built.
					hole = s.backing.file.Alloc()
				}
				err := s.CheckpointFlush(pager.Meta{Epoch: m.epoch})
				if failing {
					if err == nil {
						t.Fatalf("seed %d step %d: flush over an unwritten page committed", seed, i)
					}
					if err := s.backing.file.FreeLogical(hole); err != nil {
						t.Fatal(err)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					if got := committedImage(t, s); !bytes.Equal(got, want) {
						t.Fatalf("seed %d step %d: committed image differs from a from-scratch encode", seed, i)
					}
				}
				flushed = true
			case r <= 4 && fenced:
				s.CheckpointRelease()
				fenced = false
			case r == 5 && !fenced:
				// Reopen from the last committed generation; uncommitted
				// transactions die with the old store.
				if err := s.checkpoint(t, pager.Meta{Epoch: m.epoch}); err != nil {
					t.Fatal(err)
				}
				if err := s.CloseBacking(); err != nil {
					t.Fatal(err)
				}
				if s, _, err = OpenBacked(path, testDir(t), WithPoolPages(8)); err != nil {
					t.Fatal(err)
				}
				m.stores[0], m.open = s, nil
			case r <= 7:
				m.relocate(t)
			case r == 8:
				m.moveFile(t, s)
			case r == 9:
				watermark := 1 + uint64(m.rng.Int63n(int64(m.epoch)))
				m.exec(t, func() *abdl.Request { return &abdl.Request{Kind: abdl.MvccGC, MvccEpoch: watermark} })
			default:
				m.step(t)
			}
			s.mu.Lock()
			got, want := imageCached(s), imageFromScratch(s)
			s.mu.Unlock()
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: cached image\n%x\nfrom scratch\n%x", seed, i, got, want)
			}
		}
		if fenced {
			s.CheckpointRelease()
		}
		s.CloseBacking()
	}
	if reused == 0 {
		t.Fatal("no checkpoint started with a clean section to reuse")
	}
}

// FuzzDecodeImage feeds arbitrary bytes to the index-image decoder. It must
// never panic or allocate by a count the input cannot hold, and whenever an
// image decodes, encoding the result and decoding that again must give the
// same structures.
func FuzzDecodeImage(f *testing.F) {
	rids := map[abdm.RecordID]pager.RID{1: {Page: 0, Slot: 0}, 2: {Page: 0, Slot: 1}, 7: {Page: 3, Slot: 2}}
	fileOf := map[abdm.RecordID]string{1: "course", 2: "course", 7: "person"}
	avail := map[uint32]int{0: 100, 3: 4000}
	ix := map[string]*attrIndex{"title": newAttrIndex(), "rating": newAttrIndex(), "dept": newAttrIndex()}
	ix["title"].add(abdm.String("OS"), 1)
	ix["title"].add(abdm.String("DB"), 2)
	ix["rating"].add(abdm.Float(1.5), 1)
	ix["rating"].add(abdm.Int(3), 7)
	ix["dept"].add(abdm.Null(), 2)
	indexed := encodeImage(7, rids, fileOf, avail, true, ix)
	for _, img := range [][]byte{
		indexed,
		encodeImage(7, rids, fileOf, avail, false, nil),
		encodeImage(0, nil, nil, nil, true, nil),
		encodeImage(0, nil, nil, nil, false, nil),
	} {
		f.Add(img)
		for _, n := range []int{len(img) / 3, len(img) / 2, len(img) - 1} {
			f.Add(img[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeImage(data)
		if err != nil {
			return
		}
		enc := encodeImage(img.maxID, img.rids, img.fileOf, img.avail, img.indexed, img.indexes)
		img2, err := decodeImage(enc)
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if img2.maxID != img.maxID || img2.indexed != img.indexed ||
			!maps.Equal(img2.rids, img.rids) || !maps.Equal(img2.fileOf, img.fileOf) ||
			!maps.Equal(img2.avail, img.avail) ||
			!samePostings(postingsOf(img2.indexes), postingsOf(img.indexes)) {
			t.Fatalf("image %+v came back as %+v", img, img2)
		}
	})
}

// TestDecodeImageRejectsHugeCounts: an entry count larger than the bytes
// left is reported as a corrupt image instead of sizing an allocation.
func TestDecodeImageRejectsHugeCounts(t *testing.T) {
	hdr := binary.AppendUvarint(slices.Clone(imageMagic), 0) // maxID
	for _, n := range []uint64{1 << 62, 1 << 30, 3} {
		img := binary.AppendUvarint(slices.Clone(hdr), n)
		if _, err := decodeImage(append(img, 'a', 'b')); !errors.Is(err, errBadImage) {
			t.Fatalf("file count %d: got %v, want errBadImage", n, err)
		}
	}
}

// TestAttrIndexOrderingMerge: over random adds and removes, including int
// and float values that round to the same float64, NaN, -0, NULL and
// strings, the ordering ensureSorted keeps up to date by merging equals a
// fresh sort of the index's values.
func TestAttrIndexOrderingMerge(t *testing.T) {
	vals := []abdm.Value{
		abdm.Null(), abdm.Int(math.MaxInt64), abdm.Float(9223372036854775808.0),
		abdm.Int(math.MinInt64), abdm.Float(-9223372036854777856.0), abdm.Float(math.NaN()),
		abdm.Float(math.Copysign(0, -1)), abdm.Int(0), abdm.Float(0.5), abdm.Int(-3),
		abdm.Float(math.Inf(1)), abdm.Float(math.Inf(-1)), abdm.String(""), abdm.String("a"), abdm.String("b"),
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := newAttrIndex()
		for i := 0; i < 300; i++ {
			v, id := vals[rng.Intn(len(vals))], abdm.RecordID(1+rng.Intn(4))
			if rng.Intn(2) == 0 {
				ix.add(v, id)
			} else {
				ix.remove(v, id)
			}
			if rng.Intn(5) > 0 {
				continue
			}
			got := ix.ensureSorted()
			want := make([]ikey, 0, len(ix.postings))
			for k := range ix.postings {
				want = append(want, k)
			}
			slices.SortFunc(want, compareKeys)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: merged ordering %v, fresh sort %v", seed, i, got, want)
			}
		}
	}
}
