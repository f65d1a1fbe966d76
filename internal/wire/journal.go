package wire

// The redo journal's byte layout. The journal logs the same ABDL requests the
// bus carries, so its entries reuse the request codec; the file carries a
// header of its own, versioned apart from the bus Version, so a bus version
// bump does not orphan journals on disk.
//
//	journal := magic("MLDJ") format(byte) frame*
//	frame   := length(uint32 LE) entry
//	entry   := marker txn key req? affected[] ckptEpoch ckptEntries
//
// A journal is appended to until a crash, so its reader treats a header or a
// final frame cut short as the end of the log; every other malformation — a
// foreign header (such as a pre-framing gob journal), an oversized frame, a
// frame that does not decode — is an error.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mlds/internal/abdl"
)

const (
	journalMagic = "MLDJ"

	// JournalFormat is the journal layout version every journal header
	// carries.
	JournalFormat = 1
)

// JournalEntry is one record of the kernel controller's redo journal. The
// controller owns the meaning of Marker and of which fields each marker uses;
// Req is present on data entries only. Req is the request the controller
// executed, logged as is: the journal neither copies nor modifies it.
type JournalEntry struct {
	Marker      byte
	Txn         uint64
	Key         int64
	Req         *abdl.Request
	Affected    []uint64
	CkptEpoch   uint64
	CkptEntries uint64
}

// AppendJournalHeader appends the header a journal file starts with.
func AppendJournalHeader(b []byte) []byte {
	return append(append(b, journalMagic...), JournalFormat)
}

// AppendJournalEntry appends one framed entry to b. An entry larger than a
// reader accepts (DefaultMaxFrame) is refused, and b comes back unchanged.
func AppendJournalEntry(b []byte, e *JournalEntry) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length, patched below
	b = append(b, e.Marker)
	b = appendUvarint(b, e.Txn)
	b = appendVarint(b, e.Key)
	b = appendBool(b, e.Req != nil)
	if e.Req != nil {
		b = appendRequest(b, e.Req)
	}
	b = appendUvarint(b, uint64(len(e.Affected)))
	for _, id := range e.Affected {
		b = appendUvarint(b, id)
	}
	b = appendUvarint(b, e.CkptEpoch)
	b = appendUvarint(b, e.CkptEntries)
	n := len(b) - start - frameHeaderLen
	if n > DefaultMaxFrame {
		return b[:start], fmt.Errorf("wire: journal entry of %d bytes exceeds the %d-byte frame limit", n, DefaultMaxFrame)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// ReadJournal decodes the journal on r and hands fn each entry in order,
// stopping at fn's first error. The end of the log, including a header or a
// final frame cut short, ends the read without error.
func ReadJournal(r io.Reader, fn func(e *JournalEntry) error) error {
	br := bufio.NewReader(r)
	var hdr [len(journalMagic) + 1]byte
	n, err := io.ReadFull(br, hdr[:])
	if m := min(n, len(journalMagic)); string(hdr[:m]) != journalMagic[:m] {
		return errors.New("wire: not a journal: bad magic")
	}
	if err != nil {
		return endOfLog(err)
	}
	if f := hdr[len(journalMagic)]; f != JournalFormat {
		return fmt.Errorf("wire: journal format %d (this build reads %d)", f, JournalFormat)
	}
	var frame bytes.Buffer // the current frame's payload, reused
	for i := 1; ; i++ {
		var size [frameHeaderLen]byte
		if _, err := io.ReadFull(br, size[:]); err != nil {
			return endOfLog(err)
		}
		n := binary.LittleEndian.Uint32(size[:])
		if n > DefaultMaxFrame {
			return fmt.Errorf("wire: journal entry %d: frame of %d bytes exceeds the %d-byte limit", i, n, DefaultMaxFrame)
		}
		// CopyN grows the buffer as bytes arrive, so a length prefix with no
		// payload behind it allocates nothing.
		frame.Reset()
		if _, err := io.CopyN(&frame, br, int64(n)); err != nil {
			return endOfLog(err)
		}
		d := &dec{b: frame.Bytes()}
		e := &JournalEntry{Marker: d.byte(), Txn: d.uvarint(), Key: d.varint()}
		if d.bool() {
			e.Req = d.request()
		}
		if k := d.length(); k > 0 {
			e.Affected = make([]uint64, k)
			for j := range e.Affected {
				e.Affected[j] = d.uvarint()
			}
		}
		e.CkptEpoch = d.uvarint()
		e.CkptEntries = d.uvarint()
		if err := d.done(); err != nil {
			return fmt.Errorf("wire: journal entry %d: %w", i, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// endOfLog maps running out of input, cut short or not, to the end of the
// log.
func endOfLog(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}
