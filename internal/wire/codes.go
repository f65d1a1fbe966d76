package wire

// Code is a stable machine-readable error code carried on the wire. Remote
// clients dispatch on the code — retry a deadlock victim from BEGIN, back off
// on admission-control refusals, redial another front end on drain — exactly
// like in-process callers dispatch on the typed errors. The numbers are part
// of the protocol and MUST NOT be renumbered; add new codes at the end. The
// table is documented in DESIGN.md ("Serving tier & wire protocol v2").
type Code uint16

// Wire error codes.
const (
	// CodeOK: no error.
	CodeOK Code = 0
	// CodeInternal: unclassified server-side failure; not retryable.
	CodeInternal Code = 1
	// CodeParse: the statement failed to parse or translate; resending the
	// same text will fail the same way.
	CodeParse Code = 2
	// CodeNoDatabase: the named database is not in the catalog
	// (core.ErrNoDatabase).
	CodeNoDatabase Code = 3
	// CodeWrongModel: the language interface cannot serve the database's
	// model (core.ErrWrongModel).
	CodeWrongModel Code = 4
	// CodeUnknownLanguage: the language name is not one of the five
	// interfaces.
	CodeUnknownLanguage Code = 5
	// CodeDeadlock: the transaction was aborted as a deadlock victim
	// (txn.ErrDeadlock); retry the whole transaction from BEGIN.
	CodeDeadlock Code = 6
	// CodeLockTimeout: a lock wait exceeded the manager's bound
	// (txn.ErrLockTimeout); the transaction was aborted, retry from BEGIN.
	CodeLockTimeout Code = 7
	// CodeTxnAborted: the transaction was rolled back for another cause
	// (*txn.AbortedError); retry from BEGIN.
	CodeTxnAborted Code = 8
	// CodeReadOnly: a mutation inside a read-only snapshot transaction
	// (txn.ErrReadOnly); the transaction stays open.
	CodeReadOnly Code = 9
	// CodeNoTxn: COMMIT/ROLLBACK with no open transaction, or BEGIN with one
	// already open.
	CodeNoTxn Code = 10
	// CodeDraining: the server is draining; the request was NOT executed.
	// Retryable — redial or wait.
	CodeDraining Code = 11
	// CodeRateLimited: the session exceeded its statement rate; the request
	// was NOT executed. Retryable after backoff.
	CodeRateLimited Code = 12
	// CodeBackpressure: the session's pending-statement queue is full; the
	// request was NOT executed. Retryable after the in-flight work drains.
	CodeBackpressure Code = 13
	// CodeSessionLimit: an admission cap (global, per-connection or
	// per-database) refused the open. Retryable elsewhere or later.
	CodeSessionLimit Code = 14
	// CodeNoSession: the session id is unknown on this connection.
	CodeNoSession Code = 15
	// CodeProto: the peer violated the protocol (bad frame, bad handshake).
	CodeProto Code = 16
	// CodeNoWatch: the watch id is unknown on this connection.
	CodeNoWatch Code = 17
	// CodeWatchLimit: the per-connection watch cap refused the WATCH; it was
	// NOT opened. Retryable elsewhere or after closing other watches.
	CodeWatchLimit Code = 18
	// CodeView: a view-registry failure — CREATE VIEW on a taken name, DROP
	// VIEW on an unknown one.
	CodeView Code = 19
	// CodeResultTooLarge: the reply would exceed the peer's frame limit, so
	// the server sent this refusal in its place; the statement ran. Resending
	// it fails the same way — narrow the query instead.
	CodeResultTooLarge Code = 20
)

var codeNames = [...]string{
	CodeOK:              "ok",
	CodeInternal:        "internal",
	CodeParse:           "parse",
	CodeNoDatabase:      "no-database",
	CodeWrongModel:      "wrong-model",
	CodeUnknownLanguage: "unknown-language",
	CodeDeadlock:        "deadlock",
	CodeLockTimeout:     "lock-timeout",
	CodeTxnAborted:      "txn-aborted",
	CodeReadOnly:        "read-only",
	CodeNoTxn:           "no-txn",
	CodeDraining:        "draining",
	CodeRateLimited:     "rate-limited",
	CodeBackpressure:    "backpressure",
	CodeSessionLimit:    "session-limit",
	CodeNoSession:       "no-session",
	CodeProto:           "protocol",
	CodeNoWatch:         "no-watch",
	CodeWatchLimit:      "watch-limit",
	CodeView:            "view",
	CodeResultTooLarge:  "result-too-large",
}

// String names the code.
func (c Code) String() string {
	if int(c) < len(codeNames) && codeNames[c] != "" {
		return codeNames[c]
	}
	return "code(?)"
}

// Retryable reports whether the failed request can be resent as-is: either
// the server never executed it (admission control, drain) or the transaction
// was rolled back cleanly and can rerun from BEGIN (deadlock victim, lock
// timeout).
func (c Code) Retryable() bool {
	switch c {
	case CodeDeadlock, CodeLockTimeout, CodeTxnAborted,
		CodeDraining, CodeRateLimited, CodeBackpressure, CodeSessionLimit,
		CodeWatchLimit:
		return true
	}
	return false
}

// NotExecuted reports whether the server is guaranteed not to have run the
// statement at all — the admission-control refusals — so even non-idempotent
// work is safe to resend.
func (c Code) NotExecuted() bool {
	switch c {
	case CodeDraining, CodeRateLimited, CodeBackpressure, CodeSessionLimit,
		CodeWatchLimit:
		return true
	}
	return false
}
