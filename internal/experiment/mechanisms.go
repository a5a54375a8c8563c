package experiment

import (
	"context"
	"fmt"

	"mobipriv"
	"mobipriv/internal/trace"
)

// defaultLineup is the lineup compared throughout the evaluation,
// resolved from the mobipriv mechanism registry: raw publication (the
// strawman), the paper's smoothing-only variant, its full pipeline, and
// the two baselines from the related-work section. New scenarios are
// one mobipriv.Register (or SetLineup) call away.
var defaultLineup = []string{
	"raw",
	"promesse",
	"pipeline",
	"geoi(0.01)",
	"w4m(k=4,delta=200)",
}

var lineup = defaultLineup

// SetLineup replaces the mechanism lineup used by the comparative
// experiments with the given registry specs (validated eagerly).
// Passing nil restores the default lineup.
func SetLineup(specs []string) error {
	if specs == nil {
		lineup = defaultLineup
		return nil
	}
	for _, spec := range specs {
		if _, err := mobipriv.FromSpec(spec); err != nil {
			return fmt.Errorf("experiment: lineup: %w", err)
		}
	}
	lineup = append([]string(nil), specs...)
	return nil
}

// Lineup returns the specs of the current mechanism lineup.
func Lineup() []string { return append([]string(nil), lineup...) }

// mechanism is one anonymization under evaluation, resolved from the
// registry. Mechanisms that drop users return the published dataset
// only; experiments needing ground truth call the underlying packages
// directly.
type mechanism struct {
	name string
	mech mobipriv.Mechanism
}

func (m mechanism) apply(d *trace.Dataset) (*trace.Dataset, error) {
	res, err := m.mech.Apply(context.Background(), d)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", m.name, err)
	}
	return res.Dataset, nil
}

// smooth publishes d through the speed-smoothing stage alone, at the
// given spacing and end trim (negative: equal to epsilon).
func smooth(d *trace.Dataset, epsilon, trim float64) (*trace.Dataset, error) {
	stage := mobipriv.SpeedSmooth{Epsilon: epsilon, Trim: trim}
	return mechanism{name: "smooth", mech: mobipriv.Pipeline(stage)}.apply(d)
}

// standardMechanisms resolves the current lineup from the registry.
// The default lineup is known-good, and SetLineup validates eagerly, so
// a resolution failure here is a programmer error.
func standardMechanisms() []mechanism {
	out := make([]mechanism, 0, len(lineup))
	for _, spec := range lineup {
		m, err := mobipriv.FromSpec(spec)
		if err != nil {
			panic(fmt.Sprintf("experiment: lineup spec %q: %v", spec, err))
		}
		out = append(out, mechanism{name: m.Name(), mech: m})
	}
	return out
}
