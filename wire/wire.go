// Package wire is the frozen v1 JSON contract of the specabsint analysis
// service: one canonical encoding for Report, Leak, SpectreGadget, Stats and
// the analysis options, shared by `specanalyze -json`, the specserve HTTP
// endpoints, and the specload load generator. No CLI or service marshals
// these types ad hoc — they all go through this package, so the bytes a
// client sees are identical no matter which tool produced them.
//
// Contract rules:
//
//   - every document carries a `"v": 1` version field; decoding rejects any
//     other version;
//   - field names are frozen snake_case; empty optional sections are omitted
//     (`omitempty`), absent never means zero-but-present;
//   - encoding is canonical: two-space indent, struct field order, trailing
//     newline — the same document always serializes to the same bytes, and
//     decode∘encode is byte-stable (pinned by property tests);
//   - decoding is strict: unknown fields are an error, so contract drift is
//     caught at the boundary instead of being silently dropped.
//
// The stats section reuses the exact serialization of specabsint.Stats
// (internal/obs), which `specanalyze -stats=json` prints bare and
// stats.schema.json validates — one Stats encoding everywhere.
//
// Marshal and MarshalLine write the documents that carry a report (Report,
// AnalyzeResponse, BatchItem and BatchResponse) with the package's own
// one-pass writer (encode.go), and every other document with encoding/json.
// The writer's bytes are json.MarshalIndent's (json.Marshal's for a line)
// exactly: encoding/json is the reference the package's tests compare them
// against, byte for byte. Decoding always goes through encoding/json.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"

	"specabsint"
)

// Version is the wire contract version every document carries.
const Version = 1

// Report is the canonical serialized form of a completed analysis
// (specabsint.Report).
type Report struct {
	// V is the contract version, always 1.
	V int `json:"v"`
	// Accesses lists every architecturally reachable memory access, in
	// source order.
	Accesses []Access `json:"accesses,omitempty"`
	// Misses is the paper's #Miss; SpecMisses its wrong-path #SpMiss.
	Misses     int `json:"misses"`
	SpecMisses int `json:"spec_misses"`
	// Branches and Iterations report analysis effort.
	Branches   int `json:"branches"`
	Iterations int `json:"iterations"`
	// WCET summarizes the timing estimate.
	WCET WCET `json:"wcet"`
	// Leaks lists detected cache side channels; LeakDetected mirrors
	// len(Leaks) > 0 for clients that only triage.
	Leaks        []Leak `json:"leaks,omitempty"`
	LeakDetected bool   `json:"leak_detected,omitempty"`
	// SpectreGadgets lists speculative transmission gadgets.
	SpectreGadgets []Leak `json:"spectre_gadgets,omitempty"`
	// Stats is the observability snapshot, present when the analysis ran
	// with stats collection. Its encoding is exactly the document
	// `specanalyze -stats=json` prints.
	Stats *specabsint.Stats `json:"stats,omitempty"`
}

// Access is one memory access verdict.
type Access struct {
	Line   int    `json:"line"`
	Store  bool   `json:"store,omitempty"`
	Symbol string `json:"symbol"`
	// Class is the architectural verdict: "always-hit", "always-miss" or
	// "unknown".
	Class string `json:"class"`
	// SpecClass is the wrong-path verdict; omitted (with SpecReached false)
	// when no speculative lane reaches the access.
	SpecClass   string `json:"spec_class,omitempty"`
	SpecReached bool   `json:"spec_reached,omitempty"`
}

// Leak is one detected side channel or Spectre gadget.
type Leak struct {
	Line   int    `json:"line"`
	Symbol string `json:"symbol"`
	Store  bool   `json:"store,omitempty"`
	Class  string `json:"class"`
	// Rendered is the human-readable report line, derived from the fields
	// above (specabsint.Leak.String); it round-trips because it is
	// recomputed, never stored.
	Rendered string `json:"rendered,omitempty"`
}

// WCET is the timing estimate summary.
type WCET struct {
	Accesses        int   `json:"accesses"`
	AlwaysHits      int   `json:"always_hits"`
	AlwaysMisses    int   `json:"always_misses"`
	Unknown         int   `json:"unknown"`
	Misses          int   `json:"misses"`
	SpecMisses      int   `json:"spec_misses"`
	WorstCaseCycles int64 `json:"worst_case_cycles"`
	SpecExtraCycles int64 `json:"spec_extra_cycles"`
}

// classString renders a Classification into its frozen wire name (the same
// names Classification.String and its MarshalJSON use).
func classString(c specabsint.Classification) string { return c.String() }

// classFromString is the inverse of classString.
func classFromString(s string) (specabsint.Classification, error) {
	switch s {
	case "unknown":
		return specabsint.Unknown, nil
	case "always-hit":
		return specabsint.AlwaysHit, nil
	case "always-miss":
		return specabsint.AlwaysMiss, nil
	}
	return specabsint.Unknown, fmt.Errorf("wire: unknown classification %q", s)
}

// FromReport converts a completed analysis into its wire form.
func FromReport(r *specabsint.Report) *Report {
	if r == nil {
		return nil
	}
	out := &Report{
		V:            Version,
		Misses:       r.Misses,
		SpecMisses:   r.SpecMisses,
		Branches:     r.Branches,
		Iterations:   r.Iterations,
		LeakDetected: r.LeakDetected,
		WCET: WCET{
			Accesses:        r.WCET.Accesses,
			AlwaysHits:      r.WCET.AlwaysHits,
			AlwaysMisses:    r.WCET.AlwaysMisses,
			Unknown:         r.WCET.Unknown,
			Misses:          r.WCET.Misses,
			SpecMisses:      r.WCET.SpecMisses,
			WorstCaseCycles: r.WCET.WorstCaseCycles,
			SpecExtraCycles: r.WCET.SpecExtraCycles,
		},
		Stats: r.Stats.Clone(),
	}
	if len(r.Accesses) > 0 {
		out.Accesses = make([]Access, 0, len(r.Accesses))
	}
	for _, a := range r.Accesses {
		wa := Access{
			Line:        a.Line,
			Store:       a.Store,
			Symbol:      a.Symbol,
			Class:       classString(a.Class),
			SpecReached: a.SpecReached,
		}
		if a.SpecReached {
			wa.SpecClass = classString(a.SpecClass)
		}
		out.Accesses = append(out.Accesses, wa)
	}
	out.Leaks = fromLeaks(r.Leaks)
	out.SpectreGadgets = fromLeaks(r.SpectreGadgets)
	return out
}

func fromLeaks(leaks []specabsint.Leak) []Leak {
	var out []Leak
	for _, l := range leaks {
		out = append(out, Leak{
			Line:     l.Line,
			Symbol:   l.Symbol,
			Store:    l.Store,
			Class:    classString(l.Class),
			Rendered: l.String(),
		})
	}
	return out
}

// ToReport converts a wire document back into the API form. The conversion
// is the exact inverse of FromReport: FromReport(w.ToReport()) == w for any
// document FromReport produced.
func (w *Report) ToReport() (*specabsint.Report, error) {
	if w == nil {
		return nil, nil
	}
	if w.V != Version {
		return nil, fmt.Errorf("wire: unsupported report version %d (want %d)", w.V, Version)
	}
	out := &specabsint.Report{
		Misses:       w.Misses,
		SpecMisses:   w.SpecMisses,
		Branches:     w.Branches,
		Iterations:   w.Iterations,
		LeakDetected: w.LeakDetected,
		WCET: specabsint.WCETEstimate{
			Accesses:        w.WCET.Accesses,
			AlwaysHits:      w.WCET.AlwaysHits,
			AlwaysMisses:    w.WCET.AlwaysMisses,
			Unknown:         w.WCET.Unknown,
			Misses:          w.WCET.Misses,
			SpecMisses:      w.WCET.SpecMisses,
			WorstCaseCycles: w.WCET.WorstCaseCycles,
			SpecExtraCycles: w.WCET.SpecExtraCycles,
		},
		Stats: w.Stats.Clone(),
	}
	for _, a := range w.Accesses {
		cls, err := classFromString(a.Class)
		if err != nil {
			return nil, err
		}
		ra := specabsint.AccessReport{
			Line:        a.Line,
			Store:       a.Store,
			Symbol:      a.Symbol,
			Class:       cls,
			SpecReached: a.SpecReached,
		}
		if a.SpecReached {
			if ra.SpecClass, err = classFromString(a.SpecClass); err != nil {
				return nil, err
			}
		}
		out.Accesses = append(out.Accesses, ra)
	}
	var err error
	if out.Leaks, err = toLeaks(w.Leaks); err != nil {
		return nil, err
	}
	if out.SpectreGadgets, err = toLeaks(w.SpectreGadgets); err != nil {
		return nil, err
	}
	return out, nil
}

func toLeaks(leaks []Leak) ([]specabsint.Leak, error) {
	var out []specabsint.Leak
	for _, l := range leaks {
		cls, err := classFromString(l.Class)
		if err != nil {
			return nil, err
		}
		out = append(out, specabsint.Leak{Line: l.Line, Symbol: l.Symbol, Store: l.Store, Class: cls})
	}
	return out, nil
}

// Marshal renders any wire document in the canonical form: two-space
// indent, frozen field order, trailing newline. The same document always
// produces the same bytes.
func Marshal(doc any) ([]byte, error) {
	if out, ok, err := encodeDoc(doc, true); ok {
		return out, err
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// MarshalLine renders a wire document compactly on a single newline-
// terminated line — the NDJSON form used by /v1/batch/stream. Field order
// and names match Marshal exactly; only whitespace differs.
func MarshalLine(doc any) ([]byte, error) {
	if out, ok, err := encodeDoc(doc, false); ok {
		return out, err
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Unmarshal strictly decodes a wire document: unknown fields are an error.
func Unmarshal(data []byte, doc any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(doc); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

// EncodeReport is the one-call canonical encoding of an analysis result.
func EncodeReport(r *specabsint.Report) ([]byte, error) {
	return Marshal(FromReport(r))
}

// DecodeReport strictly parses a canonical report document.
func DecodeReport(data []byte) (*Report, error) {
	var w Report
	if err := Unmarshal(data, &w); err != nil {
		return nil, err
	}
	if w.V != Version {
		return nil, fmt.Errorf("wire: unsupported report version %d (want %d)", w.V, Version)
	}
	return &w, nil
}
