package wire

import (
	"encoding/json"
	"strconv"

	"specabsint"
)

// The documents that carry a report grow with the program, one object per
// memory access, so they are written here in one pass instead of through
// encoding/json's reflection and json.Indent's re-scan of every byte. The
// writer keeps the struct field order and the omitempty rules by hand, and
// leaves to encoding/json every string that needs escaping and the stats
// section.

// encodeDoc renders doc and a trailing newline into one buffer sized by a
// counting pass over the document, and reports whether doc is one of the
// documents that carry a report.
func encodeDoc(doc any, indent bool) ([]byte, bool, error) {
	size := encoder{indent: indent, count: true}
	if !size.doc(doc) {
		return nil, false, nil
	}
	e := encoder{indent: indent, buf: make([]byte, 0, size.n+1)}
	e.doc(doc)
	if e.err != nil {
		return nil, true, e.err
	}
	return append(e.buf, '\n'), true, nil
}

// doc writes d when it is a document that carries a report, by value or by
// pointer, nil or not, and reports whether it is.
func (e *encoder) doc(d any) bool {
	switch d := d.(type) {
	case Report:
		d.encode(e)
	case *Report:
		d.encode(e)
	case AnalyzeResponse:
		d.encode(e)
	case *AnalyzeResponse:
		d.encode(e)
	case BatchItem:
		d.encode(e)
	case *BatchItem:
		d.encode(e)
	case BatchResponse:
		d.encode(e)
	case *BatchResponse:
		d.encode(e)
	default:
		return false
	}
	return true
}

// encoder appends one document to buf, with a new line and two spaces of
// indent per level when indent is set.
type encoder struct {
	buf    []byte
	indent bool
	// count makes the encoder measure instead of write: n grows by what each
	// call would append, except that a string that needs escaping counts
	// only its unescaped bytes and the stats section counts nothing, so n
	// never exceeds the encoding's length.
	count bool
	n     int
	// depth counts the open objects and arrays.
	depth int
	err   error
}

// sepIndent is the comma, line break and indent that start a member or an
// element after the first, for every depth a document reaches: six for the
// members of an access in a batch response.
const sepIndent = ",\n                "

func (e *encoder) raw(s string) {
	if e.count {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

func (e *encoder) byte(c byte) {
	if e.count {
		e.n++
		return
	}
	e.buf = append(e.buf, c)
}

func (e *encoder) int(v int64) {
	if e.count {
		e.n += intLen(v)
		return
	}
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// intLen returns the number of bytes strconv.AppendInt writes for v.
func intLen(v int64) int {
	n := 1
	if v < 0 {
		n++
	}
	for ; v <= -10 || v >= 10; v /= 10 {
		n++
	}
	return n
}

func (e *encoder) string(s string) {
	if e.count {
		e.n += len(s) + 2
		return
	}
	if !plain(s) {
		q, _ := json.Marshal(s) // a string always encodes
		e.buf = append(e.buf, q...)
		return
	}
	b := append(e.buf, '"')
	b = append(b, s...)
	e.buf = append(b, '"')
}

// plain reports whether encoding/json writes s between quotes as it is: s
// is printable ASCII other than the quote, the backslash and the three
// characters it escapes for HTML.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// plainByte marks the bytes plain allows.
var plainByte = func() (set [256]bool) {
	for c := ' '; c <= '~'; c++ {
		set[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return set
}()

// stats appends the stats section as encoding/json renders it at the
// current depth.
func (e *encoder) stats(s *specabsint.Stats) {
	if e.count {
		return
	}
	var out []byte
	var err error
	if e.indent {
		out, err = json.MarshalIndent(s, sepIndent[2:2+2*e.depth], "  ")
	} else {
		out, err = json.Marshal(s)
	}
	if err != nil && e.err == nil {
		e.err = err
	}
	e.buf = append(e.buf, out...)
}

// next starts an array element or object member: a comma unless it is the
// first, then a new line at the current depth, which a line encoding omits.
func (e *encoder) next(first bool) {
	switch {
	case e.indent && first:
		e.raw(sepIndent[1 : 2+2*e.depth])
	case e.indent:
		e.raw(sepIndent[:2+2*e.depth])
	case !first:
		e.byte(',')
	}
}

// key starts an object member; key is the member's quoted name, colon and
// the space an indented encoding puts after the colon.
func (e *encoder) key(first bool, key string) {
	e.next(first)
	if !e.indent {
		key = key[:len(key)-1]
	}
	e.raw(key)
}

func (e *encoder) open(bracket byte) {
	e.byte(bracket)
	e.depth++
}

func (e *encoder) close(bracket byte) {
	e.depth--
	if e.indent {
		e.raw(sepIndent[1 : 2+2*e.depth])
	}
	e.byte(bracket)
}

// num, str and flag write an object member after the first one: an
// integer, a string, and a bool that omitempty leaves out unless true.
func (e *encoder) num(key string, v int64) {
	e.key(false, key)
	e.int(v)
}

func (e *encoder) str(key, s string) {
	e.key(false, key)
	e.string(s)
}

func (e *encoder) flag(key string, v bool) {
	if v {
		e.key(false, key)
		e.raw("true")
	}
}

func (r *Report) encode(e *encoder) {
	if r == nil {
		e.raw("null")
		return
	}
	e.open('{')
	e.key(true, `"v": `)
	e.int(int64(r.V))
	if len(r.Accesses) > 0 {
		e.key(false, `"accesses": `)
		e.open('[')
		for i := range r.Accesses {
			e.next(i == 0)
			r.Accesses[i].encode(e)
		}
		e.close(']')
	}
	e.num(`"misses": `, int64(r.Misses))
	e.num(`"spec_misses": `, int64(r.SpecMisses))
	e.num(`"branches": `, int64(r.Branches))
	e.num(`"iterations": `, int64(r.Iterations))
	e.key(false, `"wcet": `)
	r.WCET.encode(e)
	encodeLeaks(e, `"leaks": `, r.Leaks)
	e.flag(`"leak_detected": `, r.LeakDetected)
	encodeLeaks(e, `"spectre_gadgets": `, r.SpectreGadgets)
	if r.Stats != nil {
		e.key(false, `"stats": `)
		e.stats(r.Stats)
	}
	e.close('}')
}

func (a *Access) encode(e *encoder) {
	e.open('{')
	e.key(true, `"line": `)
	e.int(int64(a.Line))
	e.flag(`"store": `, a.Store)
	e.str(`"symbol": `, a.Symbol)
	e.str(`"class": `, a.Class)
	if a.SpecClass != "" {
		e.str(`"spec_class": `, a.SpecClass)
	}
	e.flag(`"spec_reached": `, a.SpecReached)
	e.close('}')
}

func encodeLeaks(e *encoder, key string, leaks []Leak) {
	if len(leaks) == 0 {
		return
	}
	e.key(false, key)
	e.open('[')
	for i := range leaks {
		e.next(i == 0)
		l := &leaks[i]
		e.open('{')
		e.key(true, `"line": `)
		e.int(int64(l.Line))
		e.str(`"symbol": `, l.Symbol)
		e.flag(`"store": `, l.Store)
		e.str(`"class": `, l.Class)
		if l.Rendered != "" {
			e.str(`"rendered": `, l.Rendered)
		}
		e.close('}')
	}
	e.close(']')
}

func (w *WCET) encode(e *encoder) {
	e.open('{')
	e.key(true, `"accesses": `)
	e.int(int64(w.Accesses))
	e.num(`"always_hits": `, int64(w.AlwaysHits))
	e.num(`"always_misses": `, int64(w.AlwaysMisses))
	e.num(`"unknown": `, int64(w.Unknown))
	e.num(`"misses": `, int64(w.Misses))
	e.num(`"spec_misses": `, int64(w.SpecMisses))
	e.num(`"worst_case_cycles": `, w.WorstCaseCycles)
	e.num(`"spec_extra_cycles": `, w.SpecExtraCycles)
	e.close('}')
}

func (r *AnalyzeResponse) encode(e *encoder) {
	if r == nil {
		e.raw("null")
		return
	}
	e.open('{')
	e.key(true, `"v": `)
	e.int(int64(r.V))
	if r.Name != "" {
		e.str(`"name": `, r.Name)
	}
	e.flag(`"cache_hit": `, r.CacheHit)
	if r.ElapsedNanos != 0 {
		e.num(`"elapsed_nanos": `, r.ElapsedNanos)
	}
	e.key(false, `"report": `)
	r.Report.encode(e)
	e.close('}')
}

func (it *BatchItem) encode(e *encoder) {
	if it == nil {
		e.raw("null")
		return
	}
	e.open('{')
	e.key(true, `"v": `)
	e.int(int64(it.V))
	e.num(`"index": `, int64(it.Index))
	if it.Name != "" {
		e.str(`"name": `, it.Name)
	}
	e.flag(`"cache_hit": `, it.CacheHit)
	if it.ElapsedNanos != 0 {
		e.num(`"elapsed_nanos": `, it.ElapsedNanos)
	}
	if it.Report != nil {
		e.key(false, `"report": `)
		it.Report.encode(e)
	}
	if it.Error != nil {
		e.key(false, `"error": `)
		it.Error.encode(e)
	}
	e.close('}')
}

func (x *Error) encode(e *encoder) {
	e.open('{')
	e.key(true, `"code": `)
	e.string(x.Code)
	e.str(`"message": `, x.Message)
	if x.Line != 0 {
		e.num(`"line": `, int64(x.Line))
	}
	if x.Col != 0 {
		e.num(`"col": `, int64(x.Col))
	}
	e.close('}')
}

func (r *BatchResponse) encode(e *encoder) {
	if r == nil {
		e.raw("null")
		return
	}
	e.open('{')
	e.key(true, `"v": `)
	e.int(int64(r.V))
	e.key(false, `"results": `)
	switch {
	case r.Results == nil:
		e.raw("null")
	case len(r.Results) == 0:
		e.raw("[]")
	default:
		e.open('[')
		for i := range r.Results {
			e.next(i == 0)
			r.Results[i].encode(e)
		}
		e.close(']')
	}
	e.close('}')
}
