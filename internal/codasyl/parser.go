package codasyl

import (
	"fmt"
	"strings"

	"mlds/internal/abdm"
)

// ParseScript parses a CODASYL-DML transaction script: one statement per
// line, with optional PERFORM UNTIL END-OF-SET ... END-PERFORM loops. Blank
// lines and lines beginning with "--" or "*" are ignored.
func ParseScript(src string) (Script, error) {
	lines := strings.Split(src, "\n")
	pos := 0
	var parseBlock func(inLoop bool) ([]Node, error)
	parseBlock = func(inLoop bool) ([]Node, error) {
		var nodes []Node
		for pos < len(lines) {
			ln := pos
			line := strings.TrimSpace(lines[pos])
			pos++
			if line == "" || strings.HasPrefix(line, "--") || strings.HasPrefix(line, "*") {
				continue
			}
			upper := strings.ToUpper(line)
			switch {
			case strings.HasPrefix(upper, "PERFORM"):
				body, err := parseBlock(true)
				if err != nil {
					return nil, err
				}
				nodes = append(nodes, Loop{Body: body})
			case upper == "END-PERFORM" || upper == "END PERFORM":
				if !inLoop {
					return nil, fmt.Errorf("codasyl: line %d: END-PERFORM without PERFORM", ln+1)
				}
				return nodes, nil
			default:
				st, err := ParseStmt(line)
				if err != nil {
					return nil, fmt.Errorf("codasyl: line %d: %w", ln+1, err)
				}
				nodes = append(nodes, StmtNode{Stmt: st})
			}
		}
		if inLoop {
			return nil, fmt.Errorf("codasyl: missing END-PERFORM")
		}
		return nodes, nil
	}
	nodes, err := parseBlock(false)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("codasyl: empty transaction")
	}
	return Script(nodes), nil
}

// ParseStmt parses a single CODASYL-DML statement.
func ParseStmt(line string) (Stmt, error) {
	toks, err := tokenize(line)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty statement")
	}
	p := &stmtParser{toks: toks}
	st, err := p.parse()
	if err != nil {
		return nil, err
	}
	if !p.done() {
		return nil, fmt.Errorf("trailing input after statement: %q", p.peek())
	}
	return st, nil
}

// wordTok is a lexical token: a bare word, a quoted literal, or punctuation.
type wordTok struct {
	text   string
	quoted bool
}

func tokenize(line string) ([]wordTok, error) {
	var out []wordTok
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == ',':
			out = append(out, wordTok{text: ","})
			i++
		case c == '\'':
			i++
			var b strings.Builder
			for {
				if i >= len(line) {
					return nil, fmt.Errorf("unterminated string literal")
				}
				if line[i] == '\'' {
					if i+1 < len(line) && line[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(line[i])
				i++
			}
			out = append(out, wordTok{text: b.String(), quoted: true})
		default:
			start := i
			for i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != ',' {
				i++
			}
			out = append(out, wordTok{text: line[start:i]})
		}
	}
	return out, nil
}

type stmtParser struct {
	toks []wordTok
	pos  int
}

func (p *stmtParser) done() bool { return p.pos >= len(p.toks) }

func (p *stmtParser) peek() string {
	if p.done() {
		return ""
	}
	return p.toks[p.pos].text
}

// eat consumes the next token if it equals the keyword (case-insensitive,
// unquoted).
func (p *stmtParser) eat(word string) bool {
	if p.done() || p.toks[p.pos].quoted || !strings.EqualFold(p.toks[p.pos].text, word) {
		return false
	}
	p.pos++
	return true
}

func (p *stmtParser) expect(word string) error {
	if !p.eat(word) {
		return fmt.Errorf("expected %q, found %q", word, p.peek())
	}
	return nil
}

// name parses a record, set or item name: a bare word. A quoted literal is
// a value, legal only where MOVE takes one — a name never prints quoted, so
// accepting one here would change its meaning on the way back.
func (p *stmtParser) name(what string) (string, error) {
	if p.done() || p.comma() {
		return "", fmt.Errorf("expected %s", what)
	}
	t := p.toks[p.pos]
	if t.quoted {
		return "", fmt.Errorf("expected %s, found quoted literal '%s'", what, t.text)
	}
	p.pos++
	return t.text, nil
}

// comma reports whether the next token is the list separator.
func (p *stmtParser) comma() bool {
	return !p.done() && !p.toks[p.pos].quoted && p.toks[p.pos].text == ","
}

// nameList parses name [, name]*.
func (p *stmtParser) nameList(what string) ([]string, error) {
	var out []string
	for {
		n, err := p.name(what)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
		if p.comma() {
			p.pos++
			continue
		}
		return out, nil
	}
}

func (p *stmtParser) parse() (Stmt, error) {
	switch {
	case p.eat("FIND"):
		return p.parseFind()
	case p.eat("GET"):
		return p.parseGet()
	case p.eat("STORE"):
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		return &Store{Record: rec}, nil
	case p.eat("CONNECT"):
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		if err := p.expect("TO"); err != nil {
			return nil, err
		}
		sets, err := p.nameList("set type")
		if err != nil {
			return nil, err
		}
		return &Connect{Record: rec, Sets: sets}, nil
	case p.eat("DISCONNECT"):
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		if err := p.expect("FROM"); err != nil {
			return nil, err
		}
		sets, err := p.nameList("set type")
		if err != nil {
			return nil, err
		}
		return &Disconnect{Record: rec, Sets: sets}, nil
	case p.eat("MODIFY"):
		names, err := p.nameList("record type or item")
		if err != nil {
			return nil, err
		}
		if p.eat("IN") {
			rec, err := p.name("record type")
			if err != nil {
				return nil, err
			}
			return &Modify{Record: rec, Items: names}, nil
		}
		if len(names) != 1 {
			return nil, fmt.Errorf("MODIFY with an item list requires IN record_type")
		}
		return &Modify{Record: names[0]}, nil
	case p.eat("ERASE"):
		all := p.eat("ALL")
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		return &Erase{Record: rec, All: all}, nil
	case p.eat("MOVE"):
		return p.parseMove()
	default:
		return nil, fmt.Errorf("unknown statement %q", p.peek())
	}
}

func (p *stmtParser) parseFind() (Stmt, error) {
	switch {
	case p.eat("ANY"):
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		// The USING clause is optional: bare FIND ANY locates any record of
		// the type.
		if p.done() {
			return &Find{Kind: FindAny, Record: rec}, nil
		}
		if err := p.expect("USING"); err != nil {
			return nil, err
		}
		items, err := p.nameList("item")
		if err != nil {
			return nil, err
		}
		if err := p.expect("IN"); err != nil {
			return nil, err
		}
		rec2, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		if rec2 != rec {
			return nil, fmt.Errorf("FIND ANY: USING ... IN %s does not match record type %s", rec2, rec)
		}
		return &Find{Kind: FindAny, Record: rec, Items: items}, nil
	case p.eat("CURRENT"):
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		if err := p.expect("WITHIN"); err != nil {
			return nil, err
		}
		set, err := p.name("set type")
		if err != nil {
			return nil, err
		}
		return &Find{Kind: FindCurrent, Record: rec, Set: set}, nil
	case p.eat("DUPLICATE"):
		if err := p.expect("WITHIN"); err != nil {
			return nil, err
		}
		set, err := p.name("set type")
		if err != nil {
			return nil, err
		}
		if err := p.expect("USING"); err != nil {
			return nil, err
		}
		items, err := p.nameList("item")
		if err != nil {
			return nil, err
		}
		if err := p.expect("IN"); err != nil {
			return nil, err
		}
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		return &Find{Kind: FindDuplicate, Record: rec, Set: set, Items: items}, nil
	case p.eat("OWNER"):
		if err := p.expect("WITHIN"); err != nil {
			return nil, err
		}
		set, err := p.name("set type")
		if err != nil {
			return nil, err
		}
		return &Find{Kind: FindOwner, Set: set}, nil
	case p.eat("FIRST"), p.eat("LAST"), p.eat("NEXT"), p.eat("PRIOR"):
		kind := map[string]FindKind{
			"FIRST": FindFirst, "LAST": FindLast, "NEXT": FindNext, "PRIOR": FindPrior,
		}[strings.ToUpper(p.toks[p.pos-1].text)]
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		if err := p.expect("WITHIN"); err != nil {
			return nil, err
		}
		set, err := p.name("set type")
		if err != nil {
			return nil, err
		}
		return &Find{Kind: kind, Record: rec, Set: set}, nil
	default:
		// FIND record WITHIN set CURRENT USING items IN record
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		if err := p.expect("WITHIN"); err != nil {
			return nil, err
		}
		set, err := p.name("set type")
		if err != nil {
			return nil, err
		}
		if err := p.expect("CURRENT"); err != nil {
			return nil, err
		}
		if err := p.expect("USING"); err != nil {
			return nil, err
		}
		items, err := p.nameList("item")
		if err != nil {
			return nil, err
		}
		if err := p.expect("IN"); err != nil {
			return nil, err
		}
		if _, err := p.name("record type"); err != nil {
			return nil, err
		}
		return &Find{Kind: FindWithinCurrent, Record: rec, Set: set, Items: items}, nil
	}
}

func (p *stmtParser) parseGet() (Stmt, error) {
	if p.done() {
		return &Get{}, nil
	}
	names, err := p.nameList("record type or item")
	if err != nil {
		return nil, err
	}
	if p.eat("IN") {
		rec, err := p.name("record type")
		if err != nil {
			return nil, err
		}
		return &Get{Record: rec, Items: names}, nil
	}
	if len(names) != 1 {
		return nil, fmt.Errorf("GET with an item list requires IN record_type")
	}
	return &Get{Record: names[0]}, nil
}

func (p *stmtParser) parseMove() (Stmt, error) {
	if p.done() {
		return nil, fmt.Errorf("MOVE requires a value")
	}
	t := p.toks[p.pos]
	p.pos++
	var val abdm.Value
	if t.quoted {
		val = abdm.String(t.text)
	} else {
		val = abdm.InferValue(t.text)
	}
	if err := p.expect("TO"); err != nil {
		return nil, err
	}
	item, err := p.name("item")
	if err != nil {
		return nil, err
	}
	if err := p.expect("IN"); err != nil {
		return nil, err
	}
	rec, err := p.name("record type")
	if err != nil {
		return nil, err
	}
	return &Move{Value: val, Item: item, Record: rec}, nil
}
