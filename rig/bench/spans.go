package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed stage recorded by the rig around a call into a layer.
// The spans of one statement share its id; Parent is the index of the span
// that caused this one (-1 for the request itself).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Note   string `json:"note,omitempty"` // language and operation kind
}

// spanLog keeps the traced run's spans in memory until it is written out.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	clients int // client spans kept so far
	stmts   int
}

// maxClientSpans bounds the closed loop's client spans in the file; every
// peeled span is kept.
const maxClientSpans = 20_000

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// nextStmt allocates a statement id.
func (l *spanLog) nextStmt() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stmts++
	return l.stmts
}

// add records one span and returns its index.
func (l *spanLog) add(name string, t0, t1 time.Time, parent, stmt int, note string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: int64(t0.Sub(l.t0)), End: int64(t1.Sub(l.t0)),
		Parent: parent, Stmt: stmt, Note: note})
	return len(l.spans) - 1
}

// client records one statement as a closed-loop client saw it.
func (l *spanLog) client(user int, kind, lang string, t0, t1 time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.clients >= maxClientSpans {
		return
	}
	l.clients++
	l.stmts++
	l.spans = append(l.spans, span{Name: "client.exec", Start: int64(t0.Sub(l.t0)), End: int64(t1.Sub(l.t0)),
		Parent: -1, Stmt: l.stmts, Note: lang + " " + kind})
}

// write stores the spans as JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
