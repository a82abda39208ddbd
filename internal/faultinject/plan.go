package faultinject

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// ParsePlan decodes and validates a plan from its JSON form (see Codec).
func ParsePlan(data []byte) (*Plan, error) { return planCodec.Parse(data) }

// LoadPlan reads and parses a plan file.
func LoadPlan(path string) (*Plan, error) { return planCodec.Load(path) }

// Marshal renders the plan as indented JSON, the inverse of ParsePlan.
func (p *Plan) Marshal() ([]byte, error) { return planCodec.Marshal(p) }

var planCodec = Codec[Plan, *Plan]{Pkg: "faultinject", Bad: ErrBadPlan}

// Codec is the strict JSON wire form both fault-plan schemas share. A
// plan file holds exactly one JSON object: unknown fields are rejected so
// a typo'd rule key fails loudly instead of silently matching everything,
// trailing data is rejected so a second plan pasted into the file cannot
// be dropped unseen, and a plan is validated before it is accepted or
// written.
type Codec[P any, PP interface {
	*P
	Validate() error
}] struct {
	// Pkg prefixes decode and read errors ("faultinject", "netfault").
	Pkg string
	// Bad is the sentinel a trailing-data rejection wraps.
	Bad error
}

// Parse decodes and validates one plan.
func (c Codec[P, PP]) Parse(data []byte) (*P, error) {
	p := PP(new(P))
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("%s: invalid plan: %w", c.Pkg, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after plan", c.Bad)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Load reads and parses a plan file.
func (c Codec[P, PP]) Load(path string) (*P, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: reading plan: %w", c.Pkg, err)
	}
	p, err := c.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %s: %w", c.Pkg, path, err)
	}
	return p, nil
}

// Marshal validates the plan and renders it as indented JSON.
func (c Codec[P, PP]) Marshal(p PP) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(p, "", "  ")
}
