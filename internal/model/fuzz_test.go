package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/timeu"
)

// readJSONSeeds are the loader's compatibility corners, each a document
// both decoders must treat alike, and one example of each listed
// rejection (R1–R3).
var readJSONSeeds = []string{
	`{"tasks":[{"name":"a","period":"5ms"}],"edges":[]}`,
	`{"tasks":[],"edges":[]}`,
	`{`,
	`{"ecus":[{"name":"e","kind":"bus"}],"tasks":[{"name":"a","wcet":"1ms","bcet":"1ms","period":"5ms","ecu":"e","sem":"let"}],"edges":[]}`,
	// null lists, a missing "ecus", null documents and null elements.
	`{"tasks":[{"name":"a","period":"5ms"}],"edges":null}`,
	`{"tasks":null,"edges":[]}`,
	`null`,
	`{}`,
	` {} `,
	`{"ecus":[null],"tasks":[{"name":"a","wcet":"1ms","period":"5ms","ecu":"ecu0"}]}`,
	`{"ecus":[null],"tasks":[null]}`,
	`{"tasks":[{"name":"a","period":"5ms","wcet":null,"prio":null}],"edges":[]}`,
	// Keys fold: upper case, escapes, U+017F (ſ) and the Kelvin sign.
	`{"TASKS":[{"Name":"a","WCET":"1ms","Period":"5ms","ECU":"e"}],"Ecus":[{"name":"e"}]}`,
	`{"tasks":[{"name":"a","period":"5ms"},{"name":"b","period":"5ms","wcet":"1ms","ecu":"e"}],"ecus":[{"name":"e"}],"edges":[{"\u0073rc":"a","dst":"b"}]}`,
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e","ſem":"let"}]}`,
	`{"ecus":[{"name":"e","\u212Aind":"bus"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e"}]}`,
	// "ecus" after "tasks": references resolve after the whole scan.
	`{"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e"}],"ecus":[{"name":"e"}],"edges":[]}`,
	// Integers: -0, a leading zero, exponents, fractions, other types, int64's edge.
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e","prio":-0}]}`,
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e","prio":01}]}`,
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e","prio":1e2}]}`,
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e","prio":1.0}]}`,
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e","prio":true}]}`,
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e","prio":"1"}]}`,
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e","prio":-9223372036854775808}]}`,
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e","prio":9223372036854775808}]}`,
	`{"tasks":[{"name":"a","period":"5ms"},{"name":"b","period":"5ms"}],"edges":[{"src":"a","dst":"b","cap":3}]}`,
	`{"tasks":[{"name":"a","period":"5ms"},{"name":"b","period":"5ms"}],"edges":[{"src":"a","dst":"b","cap":-1}]}`,
	// Unknown keys at every level.
	`{"tasks":[],"x":1}`,
	`{"ecus":[{"name":"e","x":1}]}`,
	`{"tasks":[{"name":"a","period":"5ms","x":1}]}`,
	`{"tasks":[{"name":"a","period":"5ms"},{"name":"b","period":"5ms"}],"edges":[{"src":"a","dst":"b","x":1}]}`,
	// Escapes, non-ASCII and invalid UTF-8, which unquotes to U+FFFD:
	// the two names below then collide.
	`{"tasks":[{"name":"\u00e9\t\"x\"","period":"5\u006ds"},{"name":"ü","period":"5ms\u00a0"}]}`,
	"{\"tasks\":[{\"name\":\"a\xff\",\"period\":\"5ms\"},{\"name\":\"a\xfe\",\"period\":\"5ms\"}]}",
	"{\"tasks\":[{\"name\":\"a\x01\",\"period\":\"5ms\"}]}",
	// R1: a second value after the document.
	`{"tasks":[{"name":"a","period":"5ms"}]}{"x":1}`,
	`null x`,
	// R2: a repeated key, here one that also folds.
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e"}],"tasks":[{"name":"b"}]}`,
	`{"tasks":[{"name":"a","period":"5ms","Period":"6ms"}]}`,
	// R3: names that collide once an empty one is defaulted.
	`{"tasks":[{"name":"task1","period":"5ms"},{"period":"5ms"}],"edges":[]}`,
	`{"ecus":[{"name":"ecu1"},{}]}`,
	// The exact-literal key path. A small fleet as WriteJSON writes it,
	// indented, prio before ecu and sem: every key matches a literal.
	smallFleetJSON(),
	// Keys that only fold-match the key due, and keys that extend or
	// truncate one or lack its closing quote: each misses every literal.
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","WCET":"1ms","period":"5ms","ecu":"e"}]}`,
	`{"tasks":[{"n\u0061me":"a","period":"5ms"}]}`,
	`{"tasks":[{"nam":"a","period":"5ms"}]}`,
	`{"tasks":[{"names":"a","period":"5ms"}]}`,
	`{"tasks":[{"name:"a","period":"5ms"}]}`,
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms"},{"name":"b","period":"5ms","wcet":"1ms","ecu":"e"}],"edges":[{"src":"a","dst":"b","cap":2,"srcs":"a"}]}`,
	// An exact key met again after the key order wraps around (R2).
	`{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms"},{"name":"b","period":"5ms","wcet":"1ms","ecu":"e"}],"edges":[{"src":"a","dst":"b","cap":2,"src":"a"}]}`,
	`{"tasks":[{"name":"a","wcet":"0ms","bcet":"0ms","period":"5ms","max_period":"6ms","deadline":"5ms","offset":"1ms","prio":0,"ecu":"","sem":"let","name":"b"}]}`,
	// Keys out of WriteJSON's order at every level.
	`{"edges":[{"dst":"b","cap":2,"src":"a"}],"tasks":[{"period":"5ms","name":"a"},{"sem":"let","ecu":"e","prio":1,"wcet":"1ms","period":"5ms","name":"b"}],"ecus":[{"kind":"bus","name":"e"}]}`,
	// White space: tabs and CRs, runs of 7, 8, 9 and 17 spaces around
	// every token, and runs that end the input, after a complete document
	// and after a string unquoted into spaces past the document's end.
	"{\t\"tasks\"\r\n:\t[ {\"name\"\r:\"a\" ,\t\"period\":\"5ms\"\r}\n]\r}\r\n",
	spaced(7), spaced(8), spaced(9), spaced(17),
	`{"tasks":[{"name":"a","period":"5ms"}]}` + strings.Repeat(" ", 17),
	spaceTail(8), spaceTail(9), spaceTail(17),
}

// smallFleetJSON is the WriteJSON text of a small fleet: two zone ECUs
// joined over a bus, with every optional task field in use.
func smallFleetJSON() string {
	g := NewGraph()
	z0, z1, bus := g.AddECU("zone0", Compute), g.AddECU("zone1", Compute), g.AddECU("can0", Bus)
	cam := g.AddTask(Task{Name: "cam", Period: 10 * ms, ECU: NoECU})
	pre := g.AddTask(Task{Name: "pre", WCET: ms, BCET: ms / 2, Period: 10 * ms, Deadline: 8 * ms, Prio: 0, ECU: z0})
	fuse := g.AddTask(Task{Name: "fuse", WCET: 2 * ms, BCET: ms, Period: 20 * ms, MaxPeriod: 25 * ms, Offset: ms, Prio: 1, ECU: z0, Sem: LET})
	act := g.AddTask(Task{Name: "act", WCET: ms, BCET: ms, Period: 20 * ms, Prio: 0, ECU: z1})
	mustEdge(g, cam, pre)
	if err := g.AddBufferedEdge(pre, fuse, 2); err != nil {
		panic(err)
	}
	mustEdge(g, fuse, act)
	if _, err := g.SplitOverBus(bus, 100*timeu.Microsecond, 250*timeu.Microsecond); err != nil {
		panic(err)
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	var b strings.Builder
	if err := g.WriteJSON(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// spaced is a one-task document with a run of n spaces around every token.
func spaced(n int) string {
	sp := strings.Repeat(" ", n)
	return sp + strings.Join([]string{"{", `"tasks"`, ":", "[", "{", `"name"`, ":", `"a"`, ",", `"period"`, ":", `"5ms"`, "}", "]", "}"}, sp) + sp
}

// spaceTail is a document cut after a run of n spaces that follows a
// name the decoder unquotes into 16 spaces, which it keeps in its buffer
// right after the document's last byte.
func spaceTail(n int) string {
	return `{"tasks":[{"name":"` + strings.Repeat(`\u0020`, 16) + `"` + strings.Repeat(" ", n)
}

// listedRejection reports which of ReadJSON's listed rejections a
// document the reference accepted as ref falls under, by predicates
// independent of the decoder: R1 if the input is not one JSON value,
// R2 if an object repeats a key, R3 if two stored names collide.
func listedRejection(data []byte, ref *Graph) string {
	switch {
	case !json.Valid(data):
		return "R1"
	case repeatsKey(data):
		return "R2"
	case duplicateNames(ref):
		return "R3"
	}
	return ""
}

// repeatsKey walks the tokens of a valid JSON document and reports
// whether any object holds two keys equal under case folding.
func repeatsKey(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	type frame struct {
		object bool
		keys   []string
		atKey  bool
	}
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := len(stack) - 1
		if top >= 0 && stack[top].object && stack[top].atKey {
			if key, ok := tok.(string); ok {
				for _, k := range stack[top].keys {
					if strings.EqualFold(k, key) {
						return true
					}
				}
				stack[top].keys = append(stack[top].keys, key)
				stack[top].atKey = false
				continue
			}
		}
		if top >= 0 && stack[top].object {
			stack[top].atKey = true
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, atKey: true})
		case json.Delim('['):
			stack = append(stack, frame{})
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:top]
			if top > 0 && stack[top-1].object {
				stack[top-1].atKey = true
			}
		}
	}
}

// duplicateNames reports whether two ECUs or two tasks of g share a name.
func duplicateNames(g *Graph) bool {
	ecus := make(map[string]bool)
	for _, e := range g.ECUs() {
		if ecus[e.Name] {
			return true
		}
		ecus[e.Name] = true
	}
	tasks := make(map[string]bool)
	for _, t := range g.Tasks() {
		if tasks[t.Name] {
			return true
		}
		tasks[t.Name] = true
	}
	return false
}

// checkAgainstReference runs both decoders on data and fails unless
// they build the same graph, compared as WriteJSON bytes, or both fail.
// ReadJSON may reject what the reference accepts only under a listed
// rejection. It returns ReadJSON's graph.
func checkAgainstReference(t *testing.T, data []byte) *Graph {
	t.Helper()
	want, refErr := readJSONReference(bytes.NewReader(data))
	g, err := ReadJSON(bytes.NewReader(data))
	switch {
	case err != nil && refErr != nil:
		return nil
	case err != nil:
		if listedRejection(data, want) == "" {
			t.Fatalf("ReadJSON rejects a document the reference accepts, outside R1–R3: %v\n%q", err, data)
		}
		return nil
	case refErr != nil:
		t.Fatalf("ReadJSON accepts a document the reference rejects (%v)\n%q", refErr, data)
	}
	var got, exp bytes.Buffer
	if err := g.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := want.WriteJSON(&exp); err != nil {
		t.Fatalf("WriteJSON of the reference graph: %v", err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("decoders disagree on %q:\nReadJSON:  %s\nreference: %s", data, got.Bytes(), exp.Bytes())
	}
	return g
}

// FuzzReadJSON hardens the graph loader: arbitrary bytes must either
// produce an error or a graph that validates and survives a write/read
// round trip, and the loader must agree with the reference decoder.
func FuzzReadJSON(f *testing.F) {
	var fig2 strings.Builder
	if err := Fig2Graph().WriteJSON(&fig2); err != nil {
		f.Fatal(err)
	}
	f.Add(fig2.String())
	for _, seed := range readJSONSeeds {
		f.Add(seed)
	}
	examples, err := filepath.Glob("../../examples/graphs/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example graphs (%v)", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}

	f.Fuzz(func(t *testing.T, data string) {
		g := checkAgainstReference(t, []byte(data))
		if g == nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadJSON accepted an invalid graph: %v", err)
		}
		var buf strings.Builder
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON failed on an accepted graph: %v", err)
		}
		if _, err := ReadJSON(strings.NewReader(buf.String())); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// TestReadJSONListedRejections pins R1–R3: each document loads with the
// reference decoder, its predicate names the rejection, and ReadJSON
// refuses it with the expected error.
func TestReadJSONListedRejections(t *testing.T) {
	for _, c := range []struct {
		rule, doc, err string
	}{
		{"R1", `{"tasks":[{"name":"a","period":"5ms"}]}{"x":1}`, "after the top-level value"},
		{"R1", "null\x00", "after the top-level value"},
		{"R2", `{"ecus":[{"name":"e"}],"tasks":[{"name":"a","period":"5ms","wcet":"1ms","ecu":"e"}],"tasks":[{"name":"b"}]}`, `repeated field "tasks"`},
		{"R2", `{"tasks":[{"name":"a","period":"5ms","PERIOD":"6ms"}]}`, `repeated field "PERIOD"`},
		{"R2", `{"ecus":[{"name":"e","kind":"bus","\u212Aind":"bus"}]}`, "repeated field"},
		{"R3", `{"tasks":[{"name":"task1","period":"5ms"},{"period":"5ms"}],"edges":[]}`, `duplicate task name "task1"`},
		{"R3", `{"tasks":[{"period":"5ms"},{"name":"task0","period":"5ms"}]}`, `duplicate task name "task0"`},
		{"R3", `{"ecus":[{"name":"ecu1"},{}]}`, `duplicate ECU name "ecu1"`},
	} {
		ref, err := readJSONReference(strings.NewReader(c.doc))
		if err != nil {
			t.Errorf("%s %q: the reference rejects it too: %v", c.rule, c.doc, err)
			continue
		}
		if got := listedRejection([]byte(c.doc), ref); got != c.rule {
			t.Errorf("%s %q: predicate says %q", c.rule, c.doc, got)
		}
		_, err = ReadJSON(strings.NewReader(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s %q: ReadJSON error %v, want one containing %q", c.rule, c.doc, err, c.err)
		}
	}
}

// TestReadJSONErrorOffsets holds each syntax error's offset within the
// input: on every seed, and exactly at the end of a document cut after a
// run of spaces, where the decoder's buffer goes on with the spaces a
// name before the cut unquoted to.
func TestReadJSONErrorOffsets(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 17} {
		doc := spaceTail(n)
		want := fmt.Sprintf("offset %d: unexpected end of input, want ',' or '}'", len(doc))
		if _, err := ReadJSON(strings.NewReader(doc)); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%d trailing spaces: ReadJSON error %v, want one ending %q", n, err, want)
		}
	}
	for _, doc := range readJSONSeeds {
		_, err := ReadJSON(strings.NewReader(doc))
		if err == nil {
			continue
		}
		_, at, found := strings.Cut(err.Error(), "offset ")
		var off int
		if _, scanErr := fmt.Sscanf(at, "%d:", &off); found && scanErr == nil && off > len(doc) {
			t.Errorf("%q: error %v lies past the input's %d bytes", doc, err, len(doc))
		}
	}
}

// lenReader reports a length and fails any read.
type lenReader int

func (r lenReader) Len() int               { return int(r) }
func (lenReader) Read([]byte) (int, error) { return 0, errors.New("read past the length check") }

// TestReadJSONSizeLimit pins the document-size limit that keeps spans in
// 32 bits: a reader reporting a longer document is refused before any
// read, and readAll refuses more than its limit whether the reader
// reports its length or not.
func TestReadJSONSizeLimit(t *testing.T) {
	want := fmt.Sprintf("model: decoding graph: document longer than %d bytes", maxDocument)
	if _, err := ReadJSON(lenReader(maxDocument + 1)); err == nil || err.Error() != want {
		t.Errorf("ReadJSON of a reader reporting %d bytes: %v, want %q", maxDocument+1, err, want)
	}
	for _, c := range []struct {
		doc   string
		limit int
		ok    bool
	}{{"{}", 2, true}, {"{} ", 2, false}, {"", 0, true}, {" ", 0, false}} {
		for name, r := range map[string]io.Reader{
			"with Len":    strings.NewReader(c.doc),
			"without Len": iotest.OneByteReader(strings.NewReader(c.doc)),
		} {
			data, err := readAll(r, c.limit)
			switch {
			case c.ok && (err != nil || string(data) != c.doc):
				t.Errorf("readAll(%q, %d) %s = %q, %v, want the document", c.doc, c.limit, name, data, err)
			case !c.ok && (err == nil || err.Error() != fmt.Sprintf("document longer than %d bytes", c.limit)):
				t.Errorf("readAll(%q, %d) %s: error %v, want the size limit's", c.doc, c.limit, name, err)
			}
		}
	}
}

// TestReadJSONReaderError passes a failing reader's error through.
func TestReadJSONReaderError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := ReadJSON(io.MultiReader(strings.NewReader(`{"tasks":`), iotest.ErrReader(boom))); !errors.Is(err, boom) {
		t.Fatalf("ReadJSON error %v, want one wrapping %v", err, boom)
	}
}
