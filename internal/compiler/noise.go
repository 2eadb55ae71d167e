package compiler

import (
	"context"
	"fmt"

	"atomique/internal/hardware"
	"atomique/internal/noise"
)

// MaxNoisyShots bounds a single trajectory run; the service rejects larger
// requests at resolve time.
const MaxNoisyShots = 1 << 20

// ShotRun is one Monte-Carlo trajectory run over a compiled program. It is
// not part of Options because no backend reads it: the compiled program
// depends only on the circuit, target and compile options, so one
// compilation serves every shot run over it. All fields are
// JSON-serializable; the service keys its cached shot results on them.
type ShotRun struct {
	// NoisyShots is the number of trajectories (0 = no run): the execution
	// witness is replayed this many times under sampled error events.
	NoisyShots int `json:"noisyShots,omitempty"`
	// NoiseSeed seeds trajectory sampling, independently of Options.Seed.
	NoiseSeed int64 `json:"noiseSeed,omitempty"`
	// Engine selects the trajectory simulation engine ("auto", "dense",
	// "stab"; empty = auto): auto dispatches Clifford witnesses to the
	// stabilizer engine and everything else to the dense state-vector.
	Engine string `json:"engine,omitempty"`
	// SampleBits switches the run from fidelity estimation to measurement
	// sampling: each trajectory is measured in the computational basis and
	// the run yields a histogram (the /v1/sample product).
	SampleBits bool `json:"sampleBits,omitempty"`
	// ShotOffset is the global index of the first sampled shot. Per-shot RNG
	// streams derive from (NoiseSeed, global index), so disjoint shot ranges
	// tile into one histogram — sharded and resumable sampling.
	ShotOffset int64 `json:"shotOffset,omitempty"`
	// NoiseScale multiplies every noise-channel probability (0 = 1.0), for
	// sensitivity probing.
	NoiseScale float64 `json:"noiseScale,omitempty"`
	// Noise1Q / Noise2Q override the hardware-derived per-gate depolarizing
	// probabilities when positive.
	Noise1Q float64 `json:"noise1Q,omitempty"`
	Noise2Q float64 `json:"noise2Q,omitempty"`
}

// RunShots runs the trajectories of run over a completed compilation and
// returns the fidelity estimate, or with run.SampleBits the measurement
// sample over shots [ShotOffset, ShotOffset+NoisyShots). The noise model
// derives from the target's physical parameters and the backend's reported
// metrics (see internal/noise); the trajectories replay the result's
// execution witness. emit, when non-nil, streams every sampled shot record
// in global shot order (the /v1/sample chunked-HTTP path); an emit error
// aborts the run. A zero run or a timed-out result (no witness) yields
// nothing; a backend that completed without a witness is an error. RunShots
// never writes to res, so one compiled result serves concurrent runs.
func RunShots(ctx context.Context, tgt Target, res *Result, run ShotRun, emit func([]noise.ShotRecord) error) (est *noise.Estimate, sr *noise.SampleResult, err error) {
	if run.NoisyShots == 0 || res.TimedOut {
		return nil, nil, nil
	}
	if run.NoisyShots < 0 || run.NoisyShots > MaxNoisyShots {
		return nil, nil, fmt.Errorf("compiler: noisy shots must be in 1..%d, got %d", MaxNoisyShots, run.NoisyShots)
	}
	if res.Program == nil {
		return nil, nil, fmt.Errorf("compiler: backend %q produced no execution witness to simulate noisily", res.Backend)
	}
	p, err := noiseParams(tgt, res.Metrics.NQubits)
	if err != nil {
		return nil, nil, err
	}
	model := noise.Build(p, res.Metrics).
		WithGateProbs(run.Noise1Q, run.Noise2Q).
		Scaled(run.NoiseScale)
	w := noise.Witness{NSlots: res.Program.NSlots, Gates: res.Program.Gates}
	if run.SampleBits {
		sr, err = noise.Sample(ctx, model, w, noise.SampleRun{
			Shots: run.NoisyShots, Offset: run.ShotOffset, Seed: run.NoiseSeed, Engine: run.Engine, Emit: emit})
	} else {
		est, err = noise.Simulate(ctx, model, w, noise.Run{Shots: run.NoisyShots, Seed: run.NoiseSeed, Engine: run.Engine})
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", res.Backend, err)
	}
	return est, sr, nil
}

// noiseParams resolves the physical parameters the noise model derives its
// gate-error channels from. Auto targets use the Table I neutral-atom
// constants — correct for every backend's canonical device because the
// paper's unbiased-comparison setting equalises gate fidelities across
// families (the movement channels come from the analytic breakdown, which
// the backend computed with its true parameters either way).
func noiseParams(tgt Target, nQubits int) (hardware.Params, error) {
	switch tgt.Kind {
	case KindFPQA:
		cfg, err := tgt.Hardware(nQubits)
		if err != nil {
			return hardware.Params{}, err
		}
		return cfg.Params, nil
	case KindZoned:
		_, p, err := tgt.ZoneSetup(nQubits)
		return p, err
	case KindCoupling:
		a, err := tgt.Arch(nQubits, tgt.Coupling.Family)
		if err != nil {
			return hardware.Params{}, err
		}
		return a.Params, nil
	default:
		return hardware.NeutralAtom(), nil
	}
}
