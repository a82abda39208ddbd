package faultinject

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// This file is the plan's JSON wire format (DESIGN.md §11). A plan file
// is the Plan struct verbatim:
//
//	{
//	  "seed": 42,
//	  "rules": [
//	    {"backend": "gpu", "probability": 0.3, "kind": "transient"},
//	    {"backend": "xfer", "kernel": "gemm", "min_dim": 512,
//	     "probability": 0.05, "kind": "latency", "latency_seconds": 0.002},
//	    {"backend": "service", "probability": 1, "kind": "panic",
//	     "max_hits": 1}
//	  ]
//	}
//
// Kind travels as its lowercase name so plans stay hand-editable.

// MarshalJSON renders Kind as its schema name.
func (k Kind) MarshalJSON() ([]byte, error) {
	switch k {
	case Transient, Hard, Latency, PanicKind:
		return json.Marshal(k.String())
	}
	return nil, fmt.Errorf("%w %v", ErrMarshalKind, k)
}

// UnmarshalJSON parses the schema name back into a Kind.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("faultinject: kind must be a string: %w", err)
	}
	kind, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// ParsePlan decodes and validates a plan from its JSON form. Unknown
// fields are rejected so a typo'd rule key fails loudly instead of
// silently matching everything.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faultinject: invalid plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPlan reads and parses a plan file.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultinject: reading plan: %w", err)
	}
	p, err := ParsePlan(data)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s: %w", path, err)
	}
	return p, nil
}

// Marshal renders the plan as indented JSON, the inverse of ParsePlan.
func (p *Plan) Marshal() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(p, "", "  ")
}
