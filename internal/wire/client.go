package wire

import (
	"io"

	"mlds/internal/abdm"
)

// The client hop of framing v2: the message exchanged between a remote
// client and the mldsserver front end. One TCP connection multiplexes many
// sessions — every message carries the session id (SID) it belongs to and a
// connection-unique Seq the reply echoes, so responses interleave freely
// across sessions on one stream.
//
// Message layout (frozen; see codec.go for the primitive encodings):
//
//	Msg := version kind sid seq code flags
//	       db language stmt err rendered
//	       txn wallus simus dbs[]
//	       watch events[]

// Message kinds.
const (
	// MsgHello opens a connection: the client sends it first, the server
	// answers with its own. Both carry the protocol version in the frame.
	MsgHello byte = 1
	// MsgOpen opens a session (DB, Language, SnapFlag) under a fresh
	// client-chosen SID.
	MsgOpen byte = 2
	// MsgExec executes one statement (Stmt) on the SID's session.
	MsgExec byte = 3
	// MsgClose closes the SID's session, rolling back any open transaction.
	MsgClose byte = 4
	// MsgPing round-trips the connection.
	MsgPing byte = 5
	// MsgListDBs lists the catalog (reply carries DBs).
	MsgListDBs byte = 6
	// MsgReply answers any request: Code/Err for failures, the outcome
	// fields for an executed statement.
	MsgReply byte = 7
	// MsgEvent is a server push: one batch of change events for the watch
	// named by Watch. It carries no Seq — pushes are unsolicited.
	MsgEvent byte = 8
	// MsgWatchClose closes a watch. Client→server it asks for teardown
	// (answered by MsgReply); server→client it announces the watch ended,
	// with Code/Err saying why (CodeOK = clean close).
	MsgWatchClose byte = 9
)

// Msg flag bits.
const (
	// SnapFlag on MsgOpen: open the session in snapshot mode (every implicit
	// statement reads a lock-free snapshot; core.SnapshotSession).
	SnapFlag uint32 = 1 << 0
	// InTxnFlag on MsgReply: the session has an explicit transaction open
	// after this statement — the client mirrors it for Session.InTxn.
	InTxnFlag uint32 = 1 << 1
	// DrainingFlag on MsgReply: the server is draining; finish open
	// transactions and redial.
	DrainingFlag uint32 = 1 << 2
)

// DBInfo is one catalog entry in a MsgListDBs reply.
type DBInfo struct {
	Name     string
	Model    string
	Backends int
	Records  int
}

// Event is one pushed change in a MsgEvent batch — the fields of a
// cdc.Change (internal/cdc copies them both ways).
type Event struct {
	Op    byte         // cdc.Op
	ID    uint64       // database key of the affected record
	Pos   uint64       // journal position (0 on load rows)
	Epoch uint64       // commit epoch (0 when unknown)
	Txn   uint64       // committing transaction id
	File  string       // kernel file
	Rec   *abdm.Record // projected post-image; nil when the change has none
}

// Msg is one client↔server message. Unused fields encode as their zero
// values; Kind says which matter.
type Msg struct {
	Kind  byte
	SID   uint32 // session id within the connection
	Seq   uint64 // connection-unique request id, echoed by the reply
	Code  Code   // MsgReply: error code (CodeOK = success)
	Flags uint32

	DB       string // MsgOpen: database name
	Language string // MsgOpen: language; MsgReply: executing interface
	Stmt     string // MsgExec: statement text
	Err      string // MsgReply: error text
	Rendered string // MsgReply: KFS display rendering

	Txn    uint64 // MsgReply: aborted transaction id (deadlock/timeout)
	WallUS uint64 // MsgReply: server-side wall time, microseconds
	SimUS  uint64 // MsgReply: simulated kernel time, microseconds

	DBs []DBInfo // MsgListDBs reply

	// Watch plumbing, appended to the frozen layout (older fields keep their
	// positions). On the MsgReply to a WATCH statement, Watch is the
	// server-assigned watch id; on MsgEvent and MsgWatchClose it names the
	// watch. Events is the MsgEvent batch, in delivery order.
	Watch  uint64
	Events []Event
}

// EncodeMsg renders one client-hop message as a framing-v2 payload.
func EncodeMsg(m *Msg) []byte {
	b := make([]byte, 0, 64)
	b = append(b, Version, m.Kind)
	b = appendUvarint(b, uint64(m.SID))
	b = appendUvarint(b, m.Seq)
	b = appendUvarint(b, uint64(m.Code))
	b = appendUvarint(b, uint64(m.Flags))
	b = appendString(b, m.DB)
	b = appendString(b, m.Language)
	b = appendString(b, m.Stmt)
	b = appendString(b, m.Err)
	b = appendString(b, m.Rendered)
	b = appendUvarint(b, m.Txn)
	b = appendUvarint(b, m.WallUS)
	b = appendUvarint(b, m.SimUS)
	b = appendUvarint(b, uint64(len(m.DBs)))
	for _, db := range m.DBs {
		b = appendString(b, db.Name)
		b = appendString(b, db.Model)
		b = appendVarint(b, int64(db.Backends))
		b = appendVarint(b, int64(db.Records))
	}
	b = appendUvarint(b, m.Watch)
	b = appendUvarint(b, uint64(len(m.Events)))
	for _, e := range m.Events {
		b = append(b, e.Op)
		b = appendUvarint(b, e.ID)
		b = appendUvarint(b, e.Pos)
		b = appendUvarint(b, e.Epoch)
		b = appendUvarint(b, e.Txn)
		b = appendString(b, e.File)
		b = appendOptRecord(b, e.Rec)
	}
	return b
}

// DecodeMsg parses a framing-v2 payload back into a client-hop message.
func DecodeMsg(payload []byte) (*Msg, error) {
	d := &dec{b: payload}
	d.checkVersion()
	var m Msg
	m.Kind = d.byte()
	m.SID = uint32(d.uvarint())
	m.Seq = d.uvarint()
	m.Code = Code(d.uvarint())
	m.Flags = uint32(d.uvarint())
	m.DB = d.string()
	m.Language = d.string()
	m.Stmt = d.string()
	m.Err = d.string()
	m.Rendered = d.string()
	m.Txn = d.uvarint()
	m.WallUS = d.uvarint()
	m.SimUS = d.uvarint()
	if n := d.length(); n > 0 {
		m.DBs = make([]DBInfo, n)
		for i := range m.DBs {
			m.DBs[i] = DBInfo{
				Name:     d.string(),
				Model:    d.string(),
				Backends: int(d.varint()),
				Records:  int(d.varint()),
			}
		}
	}
	m.Watch = d.uvarint()
	if n := d.length(); n > 0 {
		m.Events = make([]Event, n)
		for i := range m.Events {
			e := &m.Events[i]
			e.Op = d.byte()
			e.ID = d.uvarint()
			e.Pos = d.uvarint()
			e.Epoch = d.uvarint()
			e.Txn = d.uvarint()
			e.File = d.string()
			e.Rec = d.optRecord()
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &m, nil
}

// WriteMsg frames and writes one client-hop message.
func WriteMsg(w io.Writer, m *Msg) error { return WriteFrame(w, EncodeMsg(m)) }

// ReadMsg reads and parses one framed client-hop message (max 0 =
// DefaultMaxFrame).
func ReadMsg(r io.Reader, max int) (*Msg, error) {
	payload, err := ReadFrame(r, max)
	if err != nil {
		return nil, err
	}
	return DecodeMsg(payload)
}
