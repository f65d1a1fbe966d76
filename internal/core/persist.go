package core

import (
	"fmt"
	"io"

	"mlds/internal/abdl"
	"mlds/internal/currency"
	"mlds/internal/daplex"
	"mlds/internal/wire"
)

// Save writes the database — schema and contents — to w. The image can be
// restored into any System, with any backend count; logical database keys
// are attribute values, so they survive exactly.
func (db *Database) Save(w io.Writer) error {
	img := wire.Image{Name: db.Name, Model: int(db.Model)}
	switch db.Model {
	case FunctionalModel:
		img.DDL = daplex.FormatSchema(db.Fun)
	case NetworkModel:
		img.DDL = db.Net.DDL()
	case RelationalModel:
		img.DDL = db.Rel.DDL()
	case HierarchicalModel:
		img.DDL = db.Hie.DBD()
	default:
		return fmt.Errorf("core: cannot save a %s database", db.Model)
	}
	snap, err := db.Kernel.Snapshot()
	if err != nil {
		return fmt.Errorf("core: snapshot of %q for save: %w", db.Name, err)
	}
	for _, sr := range snap {
		img.Records = append(img.Records, sr.Rec)
	}
	return wire.WriteImage(w, &img)
}

// Restore reads a database image saved by Save and registers it under its
// original name.
func (s *System) Restore(r io.Reader) (*Database, error) {
	img, err := wire.ReadImage(r)
	if err != nil {
		return nil, fmt.Errorf("core: decoding database image: %w", err)
	}
	var db *Database
	switch Model(img.Model) {
	case FunctionalModel:
		db, err = s.CreateFunctional(img.Name, img.DDL)
	case NetworkModel:
		db, err = s.CreateNetwork(img.Name, img.DDL)
	case RelationalModel:
		db, err = s.CreateRelational(img.Name, img.DDL)
	case HierarchicalModel:
		db, err = s.CreateHierarchical(img.Name, img.DDL)
	default:
		return nil, fmt.Errorf("core: image has unsupported model %d", img.Model)
	}
	if err != nil {
		return nil, err
	}
	var maxKey currency.Key
	reqs := make([]*abdl.Request, 0, len(img.Records))
	for _, rec := range img.Records {
		reqs = append(reqs, abdl.NewInsert(rec))
		var keyAttr string
		switch {
		case db.AB != nil:
			keyAttr = db.AB.KeyOf(rec.File())
		case db.Hie != nil:
			keyAttr = rec.File() // segment keys are named after the segment
		}
		if keyAttr != "" {
			if v, ok := rec.Get(keyAttr); ok && !v.IsNull() && v.AsInt() > maxKey {
				maxKey = v.AsInt()
			}
		}
	}
	for off := 0; off < len(reqs); off += LoadBatchSize {
		end := min(off+LoadBatchSize, len(reqs))
		if _, _, err := db.Kernel.ExecBatch(reqs[off:end]); err != nil {
			return nil, fmt.Errorf("core: restoring records %d..%d: %w", off, end-1, err)
		}
	}
	db.Ctrl.SeedKeys(maxKey)
	return db, nil
}
