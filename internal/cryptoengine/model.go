// Engine models. The paper fixes one crypto engine — the fully
// pipelined 96-cycle AES of Table 1 — but the question its Figure 7
// begs is how much of prediction's win survives a different engine.
// EngineModel is the timing-only contract the memory controller
// programs against; Spec names a model plus its timing parameters and
// is what configs, fingerprints, CLIs and the job server carry.
//
// Three models ship:
//
//   - aes: the paper's pipelined AES (the default; Engine in engine.go).
//   - sealer: banked non-pipelined wide units, in the style of in-SRAM
//     AES macros — high per-request latency amortized across banks.
//   - bipbip: a low-latency tweakable block cipher decrypting on fetch,
//     so speculative pads buy nothing; predictions become free no-ops.
//
// Models are timing-only: each carries the machine's ctr.Keystream, from
// which the controller draws pad bits itself, so decryption stays real
// under every model and results differ only in timing.
package cryptoengine

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ctrpred/internal/ctr"
)

// EngineModel is the timing contract between the memory controller and
// a cipher engine: reserve issue slots, report ready cycles, account
// activity. Pad bits come from the shared ctr.Keystream, never from the
// model, so a model shapes when data is ready, never what it decrypts to.
type EngineModel interface {
	// ScheduleOnly books one request and returns its ready cycle.
	ScheduleOnly(now uint64, class Class) uint64
	// ScheduleGuesses books one prediction-class request per guess and
	// returns the index of the first guess equal to trueSeq (-1 if
	// none) plus that guess's ready cycle (0 if none).
	ScheduleGuesses(now uint64, guesses []uint64, trueSeq uint64) (matchIdx int, padReady uint64)
	// Stats returns a copy of the accumulated accounting.
	Stats() Stats
	// Spec returns the normalized spec the model was built from.
	Spec() Spec
	// Keystream exposes the machine's keystream, the source of every
	// pad bit the controller uses.
	Keystream() *ctr.Keystream
}

// Model names accepted by Spec and ParseEngine.
const (
	ModelAES    = "aes"
	ModelSealer = "sealer"
	ModelBipBip = "bipbip"
)

// ErrUnknownEngine is wrapped by ParseEngine and NewModel when the spec
// names no known engine model; callers branch with errors.Is instead of
// matching message substrings.
var ErrUnknownEngine = errors.New("unknown engine")

// Spec names an engine model plus its timing parameters. The zero Spec
// normalizes to the default pipelined AES, so existing configs keep
// their meaning. Fields irrelevant to the named model are zeroed by
// Normalized, giving every distinct timing behavior exactly one
// canonical Spec (the property sim.Fingerprint relies on).
type Spec struct {
	// Model is "aes", "sealer" or "bipbip" ("" = "aes").
	Model string `json:"model"`
	// LatencyCycles is the per-request latency (0 = model default:
	// aes 96, sealer 128, bipbip 4).
	LatencyCycles uint64 `json:"latency_cycles,omitempty"`
	// IssuePerCycle is the aes pipeline's issue width (0 = 1). Other
	// models ignore it.
	IssuePerCycle int `json:"issue_per_cycle,omitempty"`
	// Banks is the sealer's bank parallelism (0 = 8). Other models
	// ignore it.
	Banks int `json:"banks,omitempty"`
}

// Model defaults, shared by Normalized and the constructors.
const (
	defaultAESLatency    = 96
	defaultSealerLatency = 128
	defaultSealerBanks   = 8
	defaultBipBipLatency = 4
)

// DefaultSpec is the Table 1 engine: pipelined AES, 96-cycle latency,
// one request per cycle.
func DefaultSpec() Spec {
	return Spec{Model: ModelAES, LatencyCycles: defaultAESLatency, IssuePerCycle: 1}
}

// Normalized fills model defaults and zeroes fields the model ignores,
// so equal timing behavior hashes to equal bytes. Unknown model names
// pass through untouched; NewModel rejects them.
func (s Spec) Normalized() Spec {
	if s.Model == "" {
		s.Model = ModelAES
	}
	switch s.Model {
	case ModelAES:
		if s.LatencyCycles == 0 {
			s.LatencyCycles = defaultAESLatency
		}
		if s.IssuePerCycle <= 0 {
			s.IssuePerCycle = 1
		}
		s.Banks = 0
	case ModelSealer:
		if s.LatencyCycles == 0 {
			s.LatencyCycles = defaultSealerLatency
		}
		if s.Banks <= 0 {
			s.Banks = defaultSealerBanks
		}
		s.IssuePerCycle = 0
	case ModelBipBip:
		if s.LatencyCycles == 0 {
			s.LatencyCycles = defaultBipBipLatency
		}
		s.IssuePerCycle = 0
		s.Banks = 0
	}
	return s
}

// String renders the canonical spec form ParseEngine accepts:
// the model name alone when every parameter is the model default,
// otherwise "model:key=val[,key=val]" with only non-default keys.
// ParseEngine(s.String()) round-trips for any valid spec.
func (s Spec) String() string {
	s = s.Normalized()
	var parts []string
	d := Spec{Model: s.Model}.Normalized()
	if s.LatencyCycles != d.LatencyCycles {
		parts = append(parts, "lat="+strconv.FormatUint(s.LatencyCycles, 10))
	}
	if s.IssuePerCycle != d.IssuePerCycle {
		parts = append(parts, "issue="+strconv.Itoa(s.IssuePerCycle))
	}
	if s.Banks != d.Banks {
		parts = append(parts, "banks="+strconv.Itoa(s.Banks))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return s.Model
	}
	return s.Model + ":" + strings.Join(parts, ",")
}

// ParseEngine parses a textual engine spec as accepted by the CLIs and
// the job server:
//
//	aes | aes:lat=48 | aes:lat=48,issue=2
//	sealer | sealer:banks=8 | sealer:banks=8,lat=64
//	bipbip | bipbip:lat=2
//
// The empty string is the default aes engine. Unknown model names
// return an error wrapping ErrUnknownEngine; bad parameters return a
// plain error naming the keys the model takes.
func ParseEngine(s string) (Spec, error) {
	model, params, _ := strings.Cut(s, ":")
	if model == "" {
		model = ModelAES
	}
	var keys map[string]bool
	switch model {
	case ModelAES:
		keys = map[string]bool{"lat": true, "issue": true}
	case ModelSealer:
		keys = map[string]bool{"lat": true, "banks": true}
	case ModelBipBip:
		keys = map[string]bool{"lat": true}
	default:
		return Spec{}, fmt.Errorf("%w %q (want aes[:lat=N,issue=N], sealer[:banks=N,lat=N], bipbip[:lat=N])", ErrUnknownEngine, model)
	}
	spec := Spec{Model: model}
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || !keys[key] {
				return Spec{}, fmt.Errorf("engine %q: bad parameter %q (model %s takes %s)", s, kv, model, keyList(keys))
			}
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return Spec{}, fmt.Errorf("engine %q: bad value %q for %s (want a positive integer)", s, val, key)
			}
			switch key {
			case "lat":
				spec.LatencyCycles = uint64(n)
			case "issue":
				spec.IssuePerCycle = n
			case "banks":
				spec.Banks = n
			}
		}
	}
	return spec.Normalized(), nil
}

func keyList(keys map[string]bool) string {
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// NewModel builds the engine model the spec names, carrying ks for the
// controller's pad bits. Unknown model names return an error wrapping
// ErrUnknownEngine.
func NewModel(spec Spec, ks *ctr.Keystream) (EngineModel, error) {
	spec = spec.Normalized()
	switch spec.Model {
	case ModelAES:
		return New(Config{LatencyCycles: spec.LatencyCycles, IssuePerCycle: spec.IssuePerCycle}, ks), nil
	case ModelSealer:
		return NewSealer(spec, ks), nil
	case ModelBipBip:
		return NewBipBip(spec, ks), nil
	}
	return nil, fmt.Errorf("%w %q (want aes, sealer, bipbip)", ErrUnknownEngine, spec.Model)
}
