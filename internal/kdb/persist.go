package kdb

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"mlds/internal/abdm"
)

// The persistence format is a fixed header — magic plus format version —
// followed by a gob stream of plain DTO structs, so the model types stay
// free of serialisation concerns. Headerless streams written before the
// header existed (format v0) are still readable.

// snapshotMagic identifies a kdb snapshot stream; the byte after it is the
// format version.
const (
	snapshotMagic   = "MLDSKDB\x00"
	snapshotVersion = 1
)

// ErrCorruptSnapshot reports a snapshot stream that cannot be decoded: a
// bad magic or version header, a torn gob stream, or an impossible value
// inside it.
var ErrCorruptSnapshot = errors.New("kdb: corrupt snapshot")

type kwDTO struct {
	Attr string
	Kind byte
	I    int64
	F    float64
	S    string
}

type recordDTO struct {
	ID       uint64
	Keywords []kwDTO
	Text     string
}

type snapshotDTO struct {
	Attrs   map[string]byte
	Files   map[string][]string
	Records []recordDTO
	NextID  uint64
}

func toKwDTO(kw abdm.Keyword) kwDTO {
	d := kwDTO{Attr: kw.Attr, Kind: byte(kw.Val.Kind())}
	switch kw.Val.Kind() {
	case abdm.KindInt:
		d.I = kw.Val.AsInt()
	case abdm.KindFloat:
		d.F = kw.Val.AsFloat()
	case abdm.KindString:
		d.S = kw.Val.AsString()
	}
	return d
}

func fromKwDTO(d kwDTO) (abdm.Keyword, error) {
	var v abdm.Value
	switch abdm.Kind(d.Kind) {
	case abdm.KindNull:
		v = abdm.Null()
	case abdm.KindInt:
		v = abdm.Int(d.I)
	case abdm.KindFloat:
		v = abdm.Float(d.F)
	case abdm.KindString:
		v = abdm.String(d.S)
	default:
		return abdm.Keyword{}, fmt.Errorf("%w: unknown value kind %d", ErrCorruptSnapshot, d.Kind)
	}
	return abdm.Keyword{Attr: d.Attr, Val: v}, nil
}

// Save writes the store's directory and records to w, prefixed by the
// snapshot magic and format version.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	dto := snapshotDTO{
		Attrs: make(map[string]byte),
		Files: make(map[string][]string),
	}
	for _, a := range s.dir.Attrs() {
		k, _ := s.dir.AttrKind(a)
		dto.Attrs[a] = byte(k)
	}
	for _, f := range s.dir.Files() {
		t, _ := s.dir.FileTemplate(f)
		dto.Files[f] = t
	}
	var maxID abdm.RecordID
	for id, file := range s.fileOf {
		rec := s.files[file][id]
		if rec == nil {
			var err error
			if rec, err = s.fetchLocked(id); err != nil {
				s.mu.RUnlock()
				return err
			}
		}
		rd := recordDTO{ID: uint64(id), Text: rec.Text}
		for _, kw := range rec.Keywords {
			rd.Keywords = append(rd.Keywords, toKwDTO(kw))
		}
		dto.Records = append(dto.Records, rd)
		if id > maxID {
			maxID = id
		}
	}
	dto.NextID = uint64(maxID)
	s.mu.RUnlock()
	if _, err := w.Write(append([]byte(snapshotMagic), snapshotVersion)); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&dto)
}

// Load reads a snapshot written by Save and returns a fresh store holding
// its contents. New database keys continue after the highest loaded key.
// Headerless v0 snapshots still load; a stream that matches neither form is
// rejected with ErrCorruptSnapshot.
func Load(r io.Reader, opts ...Option) (*Store, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(snapshotMagic) + 1)
	switch {
	case err == nil && bytes.Equal(head[:len(snapshotMagic)], []byte(snapshotMagic)):
		if v := head[len(snapshotMagic)]; v != snapshotVersion {
			return nil, fmt.Errorf("%w: unsupported format version %d", ErrCorruptSnapshot, v)
		}
		if _, err := br.Discard(len(snapshotMagic) + 1); err != nil {
			return nil, err
		}
	case err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		// No header: either a legacy v0 stream (bare gob) or garbage; the
		// gob decode below settles it.
	default:
		return nil, err
	}
	var dto snapshotDTO
	if err := gob.NewDecoder(br).Decode(&dto); err != nil {
		return nil, fmt.Errorf("%w: decoding stream: %v", ErrCorruptSnapshot, err)
	}
	dir := abdm.NewDirectory()
	for a, k := range dto.Attrs {
		if err := dir.DefineAttr(a, abdm.Kind(k)); err != nil {
			return nil, err
		}
	}
	for f, t := range dto.Files {
		if err := dir.DefineFile(f, t); err != nil {
			return nil, err
		}
	}
	ctr := abdm.RecordID(dto.NextID)
	s := NewStore(dir, opts...)
	s.nextID = func() abdm.RecordID { ctr++; return ctr }
	s.seedID = func(id abdm.RecordID) {
		if id > ctr {
			ctr = id
		}
	}
	for _, rd := range dto.Records {
		rec := &abdm.Record{Text: rd.Text}
		for _, kd := range rd.Keywords {
			kw, err := fromKwDTO(kd)
			if err != nil {
				return nil, err
			}
			rec.Set(kw.Attr, kw.Val)
		}
		if err := s.InsertWithID(abdm.RecordID(rd.ID), rec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// InsertWithID stores a record under a caller-supplied database key. It is
// used when reloading snapshots and when MBDS redistributes records across
// backends; the key must not already be in use.
func (s *Store) InsertWithID(id abdm.RecordID, rec *abdm.Record) error {
	if err := s.dir.ValidateRecord(rec); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.fileOf[id]; dup {
		return fmt.Errorf("kdb: database key %d already in use", id)
	}
	if s.seedID != nil {
		s.seedID(id)
	}
	cp := rec.Clone()
	s.addLocked(id, cp)
	s.applyBacking(id, cp, 0)
	return nil
}
