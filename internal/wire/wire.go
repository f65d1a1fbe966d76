// Package wire defines the messages exchanged over MLDS's two network hops —
// the controller→backend communication bus (Envelope) and the
// client→front-end serving hop (Msg) — their compact length-prefixed binary
// encoding ("framing v2", frame.go/codec.go/client.go), and the stable
// error-code table (codes.go). It also owns the two on-disk layouts built
// from the same codec: the kernel controller's redo journal (journal.go) and
// saved database images (image.go).
//
// Messages carry the kernel's own types — abdm values, records and queries,
// abdl requests, kdb results and migration records — and the codec reads and
// writes them through their accessors and constructors, so a request is the
// same object in the session, on the bus, in the journal and in change
// capture. Encoding never modifies what it is given, and what decoding
// returns belongs to the caller.
package wire

import (
	"mlds/internal/abdl"
	"mlds/internal/kdb"
)

// Envelope is one bus message: either a request (controller→backend) or a
// reply (backend→controller). Err carries execution failures as text.
//
// The "execbatch" action carries N requests in Reqs and answers with one
// Result per request in Results, so a controller batch costs one message
// round per backend instead of N. It is the only execution verb a backend
// serves; the single-request Req and Res fields are still encoded, so frame
// bytes stay unchanged, but nothing sets them.
//
// The migration verbs stream partition pages for live migration: "export"
// sends Since/After/Limit and answers with Migs, Next and Epoch; "import"
// sends Migs and answers with N (records applied); "drop" sends IDs and
// answers with N (records removed).
type Envelope struct {
	Seq     uint64
	Req     *abdl.Request
	Reqs    []*abdl.Request // "execbatch": the batched requests, in order
	Res     *kdb.Result
	Results []*kdb.Result // "execbatch" reply: one result per request, in order
	Err     string
	ErrCode Code   // machine-readable classification of Err (CodeOK = none)
	Action  string // "execbatch", "len", "export", "import", "drop"
	N       int

	Since uint64          // "export": inclusive epoch lower bound
	After uint64          // "export": resume after this database key
	Limit int             // "export": page size (0 = unlimited)
	Migs  []kdb.MigRecord // "export" reply / "import" request: the page
	Next  uint64          // "export" reply: key to resume after (0 = done)
	Epoch uint64          // "export" reply: source commit epoch at page start
	IDs   []uint64        // "drop": database keys to remove entirely
}
