package netfault

import (
	"encoding/json"
	"fmt"

	"repro/internal/faultinject"
)

// This file is the plan's JSON wire format. A plan file is the Plan struct
// verbatim, and the schema token is mandatory so a netfault plan can never
// be mistaken for a faultinject one (docs/ARTIFACTS.md):
//
//	{
//	  "schema": "netfault/v1",
//	  "seed": 42,
//	  "rules": [
//	    {"peer": "rep-1", "probability": 0.5, "kind": "latency",
//	     "latency_ms": 40, "jitter_ms": 10},
//	    {"peer": "rep-2", "min_index": 40, "max_index": 80,
//	     "probability": 1, "kind": "blackhole", "hold_ms": 200},
//	    {"route": "/v1/threshold", "probability": 0.05, "kind": "truncate",
//	     "truncate_after": 16}
//	  ]
//	}
//
// Kind travels as its lowercase name so plans stay hand-editable.

// SchemaVersion is the plan schema token; ParsePlan refuses any other.
const SchemaVersion = "netfault/v1"

// MarshalJSON renders Kind as its schema name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if k < 0 || k >= numKinds {
		return nil, fmt.Errorf("%w: cannot marshal kind %d", ErrBadPlan, int(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON parses the schema name back into a Kind.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("netfault: kind must be a string: %w", err)
	}
	kind, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// Plan is a complete, replayable wire-fault schedule: the schema token, a
// seed, and rules evaluated in order (first firing rule wins). Plans are
// inert data; Arm turns one into a live Injector.
type Plan struct {
	// Schema must be SchemaVersion ("netfault/v1").
	Schema string `json:"schema"`
	// Seed feeds the injector's private PRNG.
	Seed int64 `json:"seed"`
	// Rules are evaluated in order; the first firing rule wins.
	Rules []Rule `json:"rules"`
}

// Validate checks the plan for schema errors.
func (p *Plan) Validate() error {
	if p.Schema != SchemaVersion {
		return fmt.Errorf("%w: plan schema %q, want %q", ErrBadPlan, p.Schema, SchemaVersion)
	}
	for i := range p.Rules {
		if err := p.Rules[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// ParsePlan decodes and validates a plan from its JSON form. The decoder
// is faultinject.Codec's: unknown fields and trailing data are rejected so
// a typo'd rule key or a pasted second plan fails loudly.
func ParsePlan(data []byte) (*Plan, error) { return planCodec.Parse(data) }

// LoadPlan reads and parses a plan file.
func LoadPlan(path string) (*Plan, error) { return planCodec.Load(path) }

// Marshal renders the plan as indented JSON, the inverse of ParsePlan.
func (p *Plan) Marshal() ([]byte, error) { return planCodec.Marshal(p) }

var planCodec = faultinject.Codec[Plan, *Plan]{Pkg: "netfault", Bad: ErrBadPlan}
