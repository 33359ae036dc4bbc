package cryptoengine

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Model names accepted by Spec and ParseEngine.
const (
	ModelAES    = "aes"
	ModelSealer = "sealer"
	ModelBipBip = "bipbip"
)

// ErrUnknownEngine is wrapped by ParseEngine and New when the spec
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

// Model defaults, applied by Normalized.
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
// pass through untouched; New rejects them.
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

// Validate reports whether New would build s: an error wrapping
// ErrUnknownEngine when s names no known model. A caller that books no
// engine time checks its spec with it instead.
func (s Spec) Validate() error {
	switch s.Normalized().Model {
	case ModelAES, ModelSealer, ModelBipBip:
		return nil
	}
	return fmt.Errorf("%w %q (want aes, sealer, bipbip)", ErrUnknownEngine, s.Model)
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
