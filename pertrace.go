package mobipriv

import (
	"context"
	"errors"
	"fmt"

	"mobipriv/internal/par"
	"mobipriv/internal/trace"
)

// PerTraceFunc anonymizes ONE trace independently of every other trace
// in the dataset. Returning (nil, nil) withholds (drops) the trace —
// the per-trace counterpart of a StageReport's Dropped list. The input
// trace must not be modified.
//
// The per-trace contract is strict equivalence: applying the function
// to each trace of a dataset must produce exactly the traces that the
// mechanism's batch Apply would publish for that dataset (same points,
// same drops). The built-in trace-independent mechanisms (raw,
// promesse, geoi) and the SpeedSmooth stage hold it by construction:
// the per-trace function is their only kernel, and their batch Apply is
// derived from it by mapTraces. Mechanisms that need cross-trace
// context — mix-zone detection, (k,δ)-aggregation — cannot satisfy it
// and do not expose the capability.
type PerTraceFunc func(ctx context.Context, tr *Trace) (*Trace, error)

// PerTracer is the optional capability a Mechanism grows when each
// trace can be anonymized in isolation: PerTrace returns the function
// the store-native Runner path (Runner.RunStore) fans across its worker
// pool. Resolve it with AsPerTrace, which sees through the wrappers
// FromSpec applies.
type PerTracer interface {
	Mechanism
	PerTrace() PerTraceFunc
}

// AsPerTrace reports whether the mechanism can run trace-by-trace and
// returns its per-trace function. It unwraps the name-normalization and
// capability layers added by FromSpec and WithStreaming, so specs like
// "geoi(0.01)" or "promesse(epsilon=200)" resolve to their per-trace
// forms.
func AsPerTrace(m Mechanism) (PerTraceFunc, bool) {
	for m != nil {
		// A nil PerTrace means "not in this configuration" (e.g. a
		// pipeline containing the mix-zone stage): keep unwrapping.
		if p, ok := m.(PerTracer); ok {
			if fn := p.PerTrace(); fn != nil {
				return fn, true
			}
		}
		u, ok := m.(interface{ Unwrap() Mechanism })
		if !ok {
			return nil, false
		}
		m = u.Unwrap()
	}
	return nil, false
}

// PerTraceMechanisms returns the sorted names of registered mechanisms
// whose default spec resolves to a per-trace-capable mechanism — the
// ones eligible for store-native runs.
func PerTraceMechanisms() []string {
	var out []string
	for _, name := range Mechanisms() {
		m, err := FromSpec(name)
		if err != nil {
			continue
		}
		if _, ok := AsPerTrace(m); ok {
			out = append(out, name)
		}
	}
	return out
}

// WithPerTrace attaches a per-trace capability to a mechanism; used by
// the built-in registrations and available to custom ones. The function
// must satisfy the PerTraceFunc equivalence contract with m.Apply.
func WithPerTrace(m Mechanism, fn PerTraceFunc) Mechanism {
	return perTraced{Mechanism: m, fn: fn}
}

type perTraced struct {
	Mechanism
	fn PerTraceFunc
}

func (p perTraced) PerTrace() PerTraceFunc { return p.fn }

// Unwrap lets the other capability probes (AsStreaming) see through
// this layer.
func (p perTraced) Unwrap() Mechanism { return p.Mechanism }

// mapTraces is the batch form of a per-trace kernel: it applies fn to
// every trace of d, fanned over the context's worker budget (par.Map),
// and collects the results by index, so the output is byte-identical
// to the serial run at any worker count. The users whose traces fn
// withheld are reported, in dataset order, as the Dropped list of one
// StageReport appended to res under the given stage name.
func mapTraces(ctx context.Context, d *Dataset, stage string, fn PerTraceFunc, res *Result) (*Dataset, error) {
	if d == nil {
		return nil, errors.New("mobipriv: nil dataset")
	}
	in := d.Traces()
	out := make([]*Trace, len(in)) // nil marks a withheld trace
	err := par.Map(ctx, len(in), func(i int) error {
		var err error
		out[i], err = fn(ctx, in[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	kept := out[:0]
	var dropped []string
	for i, tr := range out {
		if tr == nil {
			dropped = append(dropped, in[i].User)
			continue
		}
		kept = append(kept, tr)
	}
	ds, err := trace.NewDataset(kept)
	if err != nil {
		return nil, fmt.Errorf("mobipriv: %s: assemble dataset: %w", stage, err)
	}
	res.AddReport(StageReport{Stage: stage, Dropped: dropped})
	return ds, nil
}

// keepTrace is the identity kernel: raw publication, and Pseudonymize
// with an empty prefix.
func keepTrace(_ context.Context, tr *Trace) (*Trace, error) { return tr, nil }

// perTraceMechanism derives a single-stage mechanism from its per-trace
// kernel: Apply maps fn over the dataset, and the per-trace capability
// (AsPerTrace) exposes fn itself. check, when non-nil, validates the
// configuration before any trace is touched.
func perTraceMechanism(name, stage string, check func() error, fn PerTraceFunc) Mechanism {
	m := NewMechanism(name, func(ctx context.Context, d *Dataset) (*Result, error) {
		if check != nil {
			if err := check(); err != nil {
				return nil, err
			}
		}
		res := &Result{}
		out, err := mapTraces(ctx, d, stage, fn, res)
		if err != nil {
			return nil, err
		}
		res.Dataset = out
		return res, nil
	})
	return WithPerTrace(m, fn)
}
