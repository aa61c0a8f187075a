package model

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/timeu"
)

// graphJSON is the on-disk representation of a Graph. Times are written as
// strings with explicit units ("5ms", "4.75us") so that files are readable
// and unit mistakes are impossible.
type graphJSON struct {
	ECUs  []ecuJSON  `json:"ecus,omitempty"`
	Tasks []taskJSON `json:"tasks"`
	Edges []edgeJSON `json:"edges"`
}

type ecuJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

type taskJSON struct {
	Name      string `json:"name"`
	WCET      string `json:"wcet"`
	BCET      string `json:"bcet"`
	Period    string `json:"period"`
	MaxPeriod string `json:"max_period,omitempty"`
	Deadline  string `json:"deadline,omitempty"`
	Offset    string `json:"offset,omitempty"`
	Prio      int    `json:"prio"`
	ECU       string `json:"ecu,omitempty"`
	Sem       string `json:"sem,omitempty"`
}

type edgeJSON struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	Cap int    `json:"cap,omitempty"`
}

// WriteJSON serializes the graph.
func (g *Graph) WriteJSON(w io.Writer) error {
	var out graphJSON
	for _, e := range g.ecus {
		out.ECUs = append(out.ECUs, ecuJSON{Name: e.Name, Kind: e.Kind.String()})
	}
	for i := range g.tasks {
		t := &g.tasks[i]
		tj := taskJSON{
			Name:   t.Name,
			WCET:   t.WCET.String(),
			BCET:   t.BCET.String(),
			Period: t.Period.String(),
			Prio:   t.Prio,
		}
		if t.MaxPeriod != 0 {
			tj.MaxPeriod = t.MaxPeriod.String()
		}
		if t.Deadline != 0 {
			tj.Deadline = t.Deadline.String()
		}
		if t.Offset != 0 {
			tj.Offset = t.Offset.String()
		}
		if t.ECU != NoECU {
			tj.ECU = g.ecus[t.ECU].Name
		}
		if t.Sem != Implicit {
			tj.Sem = t.Sem.String()
		}
		out.Tasks = append(out.Tasks, tj)
	}
	for _, e := range g.edges {
		ej := edgeJSON{Src: g.tasks[e.Src].Name, Dst: g.tasks[e.Dst].Name}
		if e.Cap != 1 {
			ej.Cap = e.Cap
		}
		out.Edges = append(out.Edges, ej)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON deserializes a graph written by WriteJSON and validates it.
//
// The decoder is written for this one schema. It reads the document
// into memory, scans it once into compact records and then builds the
// graph, accepting what decoding into the schema with encoding/json and
// unknown fields disallowed accepts: keys match case-insensitively
// (bytes.EqualFold), null leaves a field unset or a list empty, strings
// with escapes or non-ASCII bytes unquote as encoding/json unquotes
// them, prio and cap are JSON integers, and "ecus" may follow "tasks".
// It deliberately rejects three kinds of document that encoding/json
// lets through:
//
//   - R1: anything but white space after the top-level value;
//   - R2: a key repeated within one object, case folds included;
//   - R3: two ECUs or two tasks whose names coincide once an empty name
//     has been defaulted to "ecuN" or "taskN".
//
// It also refuses a document longer than 1 GiB, so that every offset
// into it fits 32 bits.
//
// The scan costs about what the document's bytes cost. Each key is
// first compared, as an exact quoted literal, with its object's keys in
// the order WriteJSON writes them, starting after the previous key; only
// a key that equals none of them is unquoted and fold-matched. Runs of
// spaces, most of WriteJSON's indentation, are skipped eight bytes at a
// time, and a string of plain ASCII costs one table lookup per byte. All
// task names share one string.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := readAll(r, maxDocument)
	if err != nil {
		return nil, fmt.Errorf("model: decoding graph: %w", err)
	}
	d := decoder{buf: data, n: len(data)}
	if err := d.document(); err != nil {
		return nil, fmt.Errorf("model: decoding graph: %w", err)
	}
	return d.build()
}

// maxDocument is the longest document ReadJSON reads. Unquoting expands
// a string at most threefold (an invalid byte becomes U+FFFD), so the
// decoder's buffer, the document followed by its unquoted strings, stays
// below 4 GiB and a span's offsets fit a uint32.
const maxDocument = 1 << 30

// readAll reads r to the end, in one allocation when r reports its
// length as bytes.Reader, strings.Reader and bytes.Buffer do. A reader
// that reports or delivers more than limit bytes is an error.
func readAll(r io.Reader, limit int) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		if l.Len() > limit {
			return nil, fmt.Errorf("document longer than %d bytes", limit)
		}
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(r, int64(limit)+1)); err != nil {
		return nil, err
	}
	if buf.Len() > limit {
		return nil, fmt.Errorf("document longer than %d bytes", limit)
	}
	return buf.Bytes(), nil
}

// The document's lists, in key order.
const (
	ecuList = iota
	taskList
	edgeList
)

// Key positions within a record, in the order WriteJSON writes the
// keys. A task's six time fields are contiguous, from taskWCET to
// taskOffset.
const (
	ecuName, ecuKind = 0, 1

	taskName, taskWCET, taskOffset, taskPrio, taskECU, taskSem = 0, 1, 6, 7, 8, 9

	edgeSrc, edgeDst, edgeCap = 0, 1, 2
)

// schema lists the keys of one kind of object, in the order WriteJSON
// writes them, and each as the quoted literal a plain key is written
// as. The value of key num is a JSON integer; every other value is a
// string.
type schema struct {
	keys, quoted []string
	num          int
}

// newSchema is the schema of keys, whose value at position num is an
// integer, with each key's quoted literal.
func newSchema(num int, keys ...string) schema {
	sc := schema{keys: keys, num: num}
	for _, k := range keys {
		sc.quoted = append(sc.quoted, `"`+k+`"`)
	}
	return sc
}

var (
	docSchema = newSchema(-1, "ecus", "tasks", "edges")
	schemas   = [...]schema{
		ecuList:  newSchema(-1, "name", "kind"),
		taskList: newSchema(taskPrio, "name", "wcet", "bcet", "period", "max_period", "deadline", "offset", "prio", "ecu", "sem"),
		edgeList: newSchema(edgeCap, "src", "dst", "cap"),
	}
)

// span locates a string value in decoder.buf; the zero span is "".
// maxDocument keeps its offsets within 32 bits.
type span struct{ off, end uint32 }

// record is one scanned ECU, task or edge object: each string value as
// a span, by key position, and the integer value.
type record struct {
	text [taskSem + 1]span
	num  int
}

// decoder scans a graph document held in memory.
type decoder struct {
	// buf holds the document in buf[:n], followed by the unquoted form of
	// each string that needed encoding/json's unquoting.
	buf []byte
	n   int
	pos int

	recs  []record
	lists [3][2]int // recs[lo:hi] of each list
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the cursor, or the end of the input,
// where want was due.
func (d *decoder) unexpected(want string) error {
	if d.pos >= d.n {
		return d.errorf("unexpected end of input, want %s", want)
	}
	return d.errorf("invalid character %q, want %s", d.buf[d.pos], want)
}

// spaces is eight ' ' bytes read as one little-endian word.
const spaces = 0x2020202020202020

// peek skips JSON white space and returns the next byte, or 0 at the
// end. A byte above ' ' returns at once. A run of spaces is skipped a
// word at a time, the last word's leading spaces counted from its
// trailing zero bits, and no word reaches past d.n.
func (d *decoder) peek() byte {
	b, i := d.buf[:d.n], d.pos
	for i < len(b) {
		c := b[i]
		if c > ' ' {
			d.pos = i
			return c
		}
		switch c {
		case ' ':
			i++
			for i+8 <= len(b) {
				w := binary.LittleEndian.Uint64(b[i:]) ^ spaces
				if w != 0 {
					i += bits.TrailingZeros64(w) / 8
					break
				}
				i += 8
			}
		case '\t', '\n', '\r':
			i++
		default:
			d.pos = i
			return c
		}
	}
	d.pos = i
	return 0
}

// null consumes a null literal if one is next.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	if string(d.buf[d.pos:min(d.pos+4, d.n)]) != "null" {
		return false, d.unexpected("null")
	}
	d.pos += 4
	return true, nil
}

// document scans the top-level object into records.
func (d *decoder) document() error {
	// Every object opens with a brace, so their count bounds the records.
	// Braces inside strings inflate it, so it is capped at one record per
	// 16 input bytes, which any WriteJSON record exceeds; a denser
	// document grows the slice instead.
	d.recs = make([]record, 0, min(bytes.Count(d.buf[:d.n], []byte{'{'}), d.n/16))
	if err := d.topLevel(); err != nil {
		return err
	}
	d.peek()
	if d.pos < d.n {
		return d.errorf("invalid character %q after the top-level value", d.buf[d.pos])
	}
	return nil
}

// topLevel scans the top-level object, or null: each value is an array
// of the records of its key's list.
func (d *decoder) topLevel() error {
	if done, err := d.open('{', '}', "an object"); done || err != nil {
		return err
	}
	var seen uint32
	for list := 0; ; list++ {
		var err error
		if list, err = d.key(&docSchema, list, &seen); err != nil {
			return err
		}
		lo := len(d.recs)
		err = d.array(list)
		d.lists[list] = [2]int{lo, len(d.recs)}
		if err != nil {
			return err
		}
		if more, err := d.next('}'); !more || err != nil {
			return err
		}
	}
}

// array scans an array, or null, of objects of the list's schema.
func (d *decoder) array(list int) error {
	if done, err := d.open('[', ']', "an array"); done || err != nil {
		return err
	}
	for {
		if err := d.record(&schemas[list]); err != nil {
			return err
		}
		if more, err := d.next(']'); !more || err != nil {
			return err
		}
	}
}

// record scans one object of the schema, or null, into a new record.
// Its values are scanned here, in the loop over its keys.
func (d *decoder) record(sc *schema) error {
	d.recs = append(d.recs, record{})
	rec := &d.recs[len(d.recs)-1]
	if done, err := d.open('{', '}', "an object"); done || err != nil {
		return err
	}
	var seen uint32
	for k := 0; ; k++ {
		var err error
		if k, err = d.key(sc, k, &seen); err != nil {
			return err
		}
		if k == sc.num {
			rec.num, err = d.integer()
		} else {
			rec.text[k], err = d.stringValue()
		}
		if err != nil {
			return err
		}
		if more, err := d.next('}'); !more || err != nil {
			return err
		}
	}
}

// open consumes null, or an opening bracket (what names it in the
// error) and the closing one if it follows at once; done reports null
// or an empty object or array.
func (d *decoder) open(opening, closing byte, what string) (done bool, err error) {
	if ok, err := d.null(); ok || err != nil {
		return ok, err
	}
	if d.peek() != opening {
		return false, d.unexpected(what)
	}
	d.pos++
	if d.peek() == closing {
		d.pos++
		return true, nil
	}
	return false, nil
}

// next consumes the ',' or the closing bracket after a member or
// element; more reports the ','.
func (d *decoder) next(closing byte) (more bool, err error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case closing:
		d.pos++
		return false, nil
	}
	return false, d.unexpected("',' or '" + string(closing) + "'")
}

// key scans an object's key and the colon after it, and returns the
// key's position in sc. The key is first compared with sc's quoted
// literals, from position from on, wrapping around. A key written as
// WriteJSON writes it thus matches on the first comparison, or after
// one for each key WriteJSON omitted before it. A key that equals no
// literal, folded, escaped or unknown, is scanned and must fold-match
// one of sc's keys. A key seen before in the object is an error (R2).
func (d *decoder) key(sc *schema, from int, seen *uint32) (int, error) {
	if d.peek() != '"' {
		return 0, d.unexpected("a key")
	}
	start := d.pos
	var key []byte
	k := d.literal(sc.quoted, from)
	if k >= 0 {
		key = d.buf[start+1 : d.pos-1]
	} else {
		sp, err := d.text()
		if err != nil {
			return 0, err
		}
		key = d.slice(sp)
		if k = match(sc.keys, key); k < 0 {
			return 0, d.errorf("unknown field %q", key)
		}
	}
	if *seen&(1<<k) != 0 {
		return 0, d.errorf("repeated field %q", key)
	}
	*seen |= 1 << k
	if d.peek() != ':' {
		return 0, d.unexpected("':'")
	}
	d.pos++
	return k, nil
}

// literal consumes the first of lits, tried from position from on and
// wrapping around, that the input at the cursor starts with, and
// returns its position, or -1 if none matches.
func (d *decoder) literal(lits []string, from int) int {
	rest := d.buf[d.pos:d.n]
	for i, k := 0, from; i < len(lits); i, k = i+1, k+1 {
		if k == len(lits) {
			k = 0
		}
		if lit := lits[k]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
			d.pos += len(lit)
			return k
		}
	}
	return -1
}

// match returns the position of the key that key equals under Unicode
// case folding, or -1.
func match(keys []string, key []byte) int {
	for k, name := range keys {
		if string(key) == name {
			return k
		}
	}
	for k, name := range keys {
		if bytes.EqualFold(key, []byte(name)) {
			return k
		}
	}
	return -1
}

// stringValue scans a string, or null as the empty string.
func (d *decoder) stringValue() (span, error) {
	if ok, err := d.null(); ok || err != nil {
		return span{}, err
	}
	if d.peek() != '"' {
		return span{}, d.unexpected("a string")
	}
	return d.text()
}

// plain marks the bytes a string literal may hold as themselves: ASCII
// from ' ' up, other than '"' and '\'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// text scans the string literal at the cursor. A literal of plain bytes
// only is its own value; any other is unquoted by encoding/json, whose
// result is appended to buf.
func (d *decoder) text() (span, error) {
	b := d.buf[:d.n]
	start := d.pos + 1
	i := start
	for i < len(b) && plain[b[i]] {
		i++
	}
	if i < len(b) && b[i] == '"' {
		d.pos = i + 1
		return span{uint32(start), uint32(i)}, nil
	}
	for ; i < len(b) && b[i] != '"'; i++ {
		if b[i] == '\\' {
			i++
		}
	}
	if i >= len(b) {
		d.pos = d.n
		return span{}, d.unexpected("the end of a string")
	}
	var s string
	if err := json.Unmarshal(b[start-1:i+1], &s); err != nil {
		return span{}, d.errorf("%v", err)
	}
	d.pos = i + 1
	off := len(d.buf)
	d.buf = append(d.buf, s...)
	return span{uint32(off), uint32(len(d.buf))}, nil
}

// integer scans a JSON number that must be an integer in int's range,
// or null as zero.
func (d *decoder) integer() (int, error) {
	if ok, err := d.null(); ok || err != nil {
		return 0, err
	}
	neg := d.pos < d.n && d.buf[d.pos] == '-'
	if neg {
		d.pos++
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	first := d.pos
	var v uint64
	for ; d.pos < d.n && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9'; d.pos++ {
		digit := uint64(d.buf[d.pos] - '0')
		if v > (limit-digit)/10 {
			return 0, d.errorf("integer out of range")
		}
		v = v*10 + digit
	}
	switch {
	case d.pos == first:
		return 0, d.unexpected("an integer")
	case d.buf[first] == '0' && d.pos > first+1:
		return 0, d.errorf("integer with a leading zero")
	case d.pos < d.n && (d.buf[d.pos] == '.' || d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E'):
		return 0, d.errorf("number is not an integer")
	case neg:
		return int(-v), nil // wraps to the negative value, MinInt included
	}
	return int(v), nil
}

func (d *decoder) slice(s span) []byte { return d.buf[s.off:s.end] }

func (d *decoder) list(l int) []record { return d.recs[d.lists[l][0]:d.lists[l][1]] }

// build makes the graph from the records, sized by them, resolving names
// as written, and validates it.
func (d *decoder) build() (*Graph, error) {
	ecus, tasks, edges := d.list(ecuList), d.list(taskList), d.list(edgeList)
	g := &Graph{
		tasks:   make([]Task, 0, len(tasks)),
		ecus:    make([]ECU, 0, len(ecus)),
		edges:   make([]Edge, 0, len(edges)),
		edgeIdx: make(map[uint64]int, len(edges)),
	}
	ecuByName := make(map[string]ECUID, len(ecus))
	for i := range ecus {
		name, kindText := d.slice(ecus[i].text[ecuName]), d.slice(ecus[i].text[ecuKind])
		var kind ECUKind
		switch string(kindText) {
		case "compute", "":
			kind = Compute
		case "bus":
			kind = Bus
		default:
			return nil, fmt.Errorf("model: ECU %q has unknown kind %q", name, kindText)
		}
		if _, dup := ecuByName[string(name)]; dup {
			return nil, fmt.Errorf("model: duplicate ECU name %q", name)
		}
		s := string(name)
		ecuByName[s] = g.AddECU(s, kind)
	}
	// Written names are distinct, so at most one was empty and defaulted
	// to "ecuN", which must not be written elsewhere (R3).
	if id, ok := ecuByName[""]; ok {
		if _, dup := ecuByName[g.ecus[id].Name]; dup {
			return nil, fmt.Errorf("model: duplicate ECU name %q", g.ecus[id].Name)
		}
	}
	// Every task name is a slice of one string, in one allocation.
	var block strings.Builder
	size := 0
	for i := range tasks {
		size += len(d.slice(tasks[i].text[taskName]))
	}
	block.Grow(size)
	for i := range tasks {
		block.Write(d.slice(tasks[i].text[taskName]))
	}
	names := block.String()
	taskByName := make(map[string]TaskID, len(tasks))
	for i := range tasks {
		rec := &tasks[i]
		t := Task{Name: names[:rec.text[taskName].end-rec.text[taskName].off], Prio: rec.num, ECU: NoECU}
		names = names[len(t.Name):]
		// AddTask below gives the task ID i. A name already in the map
		// leaves its size unchanged; the graph is discarded then.
		if taskByName[t.Name] = TaskID(i); len(taskByName) == i {
			return nil, fmt.Errorf("model: duplicate task name %q", t.Name)
		}
		for f, field := range [...]*timeu.Time{&t.WCET, &t.BCET, &t.Period, &t.MaxPeriod, &t.Deadline, &t.Offset} {
			text := d.slice(rec.text[taskWCET+f])
			if len(text) == 0 {
				continue
			}
			v, err := timeu.ParseBytes(text)
			if err != nil {
				return nil, fmt.Errorf("model: task %q %s: %w", t.Name, schemas[taskList].keys[taskWCET+f], err)
			}
			*field = v
		}
		if ecu := d.slice(rec.text[taskECU]); len(ecu) > 0 {
			id, ok := ecuByName[string(ecu)]
			if !ok {
				return nil, fmt.Errorf("model: task %q references unknown ECU %q", t.Name, ecu)
			}
			t.ECU = id
		}
		switch sem := d.slice(rec.text[taskSem]); string(sem) {
		case "", "implicit":
		case "let":
			t.Sem = LET
		default:
			return nil, fmt.Errorf("model: task %q has unknown semantics %q", t.Name, sem)
		}
		g.AddTask(t)
	}
	// As for ECUs: a defaulted "taskN" must not be written elsewhere (R3).
	if id, ok := taskByName[""]; ok {
		if _, dup := taskByName[g.tasks[id].Name]; dup {
			return nil, fmt.Errorf("model: duplicate task name %q", g.tasks[id].Name)
		}
	}
	for i := range edges {
		rec := &edges[i]
		src, ok := taskByName[string(d.slice(rec.text[edgeSrc]))]
		if !ok {
			return nil, fmt.Errorf("model: edge references unknown task %q", d.slice(rec.text[edgeSrc]))
		}
		dst, ok := taskByName[string(d.slice(rec.text[edgeDst]))]
		if !ok {
			return nil, fmt.Errorf("model: edge references unknown task %q", d.slice(rec.text[edgeDst]))
		}
		capacity := rec.num
		if capacity == 0 {
			capacity = 1
		}
		if err := g.AddBufferedEdge(src, dst, capacity); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteDOT renders the graph in Graphviz DOT format: one cluster per ECU,
// vertex labels carrying (W, B, T) as in the paper's figures, and edge
// labels carrying non-default buffer capacities.
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph causeeffect {\n  rankdir=LR;\n  node [shape=ellipse];\n")
	byECU := make(map[ECUID][]TaskID)
	for i := range g.tasks {
		byECU[g.tasks[i].ECU] = append(byECU[g.tasks[i].ECU], TaskID(i))
	}
	var ecuIDs []ECUID
	for id := range byECU {
		ecuIDs = append(ecuIDs, id)
	}
	sort.Slice(ecuIDs, func(i, j int) bool { return ecuIDs[i] < ecuIDs[j] })
	label := func(t *Task) string {
		return fmt.Sprintf("%s\\n(%s, %s, %s)", t.Name, t.WCET, t.BCET, t.Period)
	}
	for _, ecu := range ecuIDs {
		if ecu == NoECU {
			for _, id := range byECU[ecu] {
				t := g.Task(id)
				fmt.Fprintf(&b, "  %q [label=%q, style=dashed];\n", t.Name, label(t))
			}
			continue
		}
		e := g.ECU(ecu)
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=%q;\n", ecu, fmt.Sprintf("%s (%s)", e.Name, e.Kind))
		for _, id := range byECU[ecu] {
			t := g.Task(id)
			fmt.Fprintf(&b, "    %q [label=%q];\n", t.Name, label(t))
		}
		b.WriteString("  }\n")
	}
	for _, e := range g.edges {
		if e.Cap != 1 {
			fmt.Fprintf(&b, "  %q -> %q [label=\"cap=%d\"];\n", g.tasks[e.Src].Name, g.tasks[e.Dst].Name, e.Cap)
		} else {
			fmt.Fprintf(&b, "  %q -> %q;\n", g.tasks[e.Src].Name, g.tasks[e.Dst].Name)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
