package obs

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// The stats contract is pinned twice: golden tests fix the exact bytes for
// known programs, and stats.schema.json fixes the shape for arbitrary ones.
// The schema is plain draft-07 JSON Schema so external tooling can consume
// it; this file carries the minimal in-tree validator for the keyword subset
// the schema uses (type, properties, required, additionalProperties, items,
// minimum), keeping the check dependency-free for the CI smoke step.

//go:embed stats.schema.json
var statsSchemaJSON []byte

// schemaNode is the supported JSON-Schema keyword subset.
type schemaNode struct {
	Type                 string                 `json:"type"`
	Properties           map[string]*schemaNode `json:"properties"`
	Required             []string               `json:"required"`
	AdditionalProperties *bool                  `json:"additionalProperties"`
	Items                *schemaNode            `json:"items"`
	Minimum              *float64               `json:"minimum"`
}

// ValidateStats checks a serialized Stats document against the embedded
// schema and returns the first violation found (with its JSON path), or nil.
// It parses the 4 KB schema on every call; no caller validates in a hot
// path.
func ValidateStats(doc []byte) error {
	var s schemaNode
	if err := json.Unmarshal(statsSchemaJSON, &s); err != nil {
		return fmt.Errorf("obs: embedded stats schema is invalid JSON: %w", err)
	}
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		return fmt.Errorf("obs: stats document is invalid JSON: %w", err)
	}
	return validate(&s, v, "$")
}

func validate(s *schemaNode, v any, path string) error {
	switch s.Type {
	case "object":
		obj, ok := v.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: want object, got %T", path, v)
		}
		for _, req := range s.Required {
			if _, ok := obj[req]; !ok {
				return fmt.Errorf("%s: missing required property %q", path, req)
			}
		}
		// Sorted key order makes the first-violation error deterministic.
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sub, known := s.Properties[k]
			if !known {
				if s.AdditionalProperties != nil && !*s.AdditionalProperties {
					return fmt.Errorf("%s: unknown property %q", path, k)
				}
				continue
			}
			if err := validate(sub, obj[k], path+"."+k); err != nil {
				return err
			}
		}
		return nil
	case "array":
		arr, ok := v.([]any)
		if !ok {
			return fmt.Errorf("%s: want array, got %T", path, v)
		}
		if s.Items != nil {
			for i, el := range arr {
				if err := validate(s.Items, el, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
		return nil
	case "integer", "number":
		n, ok := v.(float64) // encoding/json decodes every number as float64
		if !ok {
			return fmt.Errorf("%s: want %s, got %T", path, s.Type, v)
		}
		if s.Type == "integer" && n != math.Trunc(n) {
			return fmt.Errorf("%s: want integer, got %v", path, n)
		}
		if s.Minimum != nil && n < *s.Minimum {
			return fmt.Errorf("%s: %v below minimum %v", path, n, *s.Minimum)
		}
		return nil
	case "string":
		if _, ok := v.(string); !ok {
			return fmt.Errorf("%s: want string, got %T", path, v)
		}
		return nil
	case "boolean":
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("%s: want boolean, got %T", path, v)
		}
		return nil
	case "":
		return nil // untyped: anything goes
	default:
		return fmt.Errorf("%s: schema uses unsupported type %q", path, s.Type)
	}
}
