package wire

// The byte layout of a saved database image: a header of its own, then the
// schema, then every kernel record in the bus's record codec.
//
//	image := magic("MLDI") format(byte) name model(varint) ddl count(uvarint) record*count
//
// An image is written whole by one save, so any short read is an error.

import (
	"errors"
	"fmt"
	"io"

	"mlds/internal/abdm"
)

const (
	imageMagic = "MLDI"

	// ImageFormat is the image layout version every image header carries.
	ImageFormat = 1
)

// Image is a saved database: its schema as DDL text plus every kernel record.
type Image struct {
	Name    string
	Model   int
	DDL     string
	Records []*abdm.Record
}

// WriteImage writes img to w.
func WriteImage(w io.Writer, img *Image) error {
	b := append([]byte(imageMagic), ImageFormat)
	b = appendString(b, img.Name)
	b = appendVarint(b, int64(img.Model))
	b = appendString(b, img.DDL)
	b = appendUvarint(b, uint64(len(img.Records)))
	for _, r := range img.Records {
		b = appendRecord(b, r)
	}
	_, err := w.Write(b)
	return err
}

// ReadImage reads an image written by WriteImage.
func ReadImage(r io.Reader) (*Image, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(b) <= len(imageMagic) || string(b[:len(imageMagic)]) != imageMagic {
		return nil, errors.New("wire: not a database image")
	}
	if f := b[len(imageMagic)]; f != ImageFormat {
		return nil, fmt.Errorf("wire: image format %d (this build reads %d)", f, ImageFormat)
	}
	d := &dec{b: b[len(imageMagic)+1:]}
	img := &Image{Name: d.string(), Model: int(d.varint()), DDL: d.string()}
	img.Records = make([]*abdm.Record, d.length())
	for i := range img.Records {
		img.Records[i] = d.record()
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("wire: database image: %w", err)
	}
	return img, nil
}
