package chaos

import "testing"

// FuzzChaosParse checks that Parse never panics and that every schedule
// it accepts survives rendering: Parse(String()) succeeds, renders the
// same string and holds the same rules, with P 0 and 1 counted as one
// value (both mean "always", and String omits p=1). The committed corpus
// under testdata/fuzz holds the test schedules and the documented
// examples, and runs in plain `go test`.
//
//	go test ./internal/chaos -run '^$' -fuzz FuzzChaosParse -fuzztime 30s
func FuzzChaosParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		sched, err := Parse(s)
		if err != nil {
			return
		}
		text := sched.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which Parse rejects: %v", s, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) renders as %q, then as %q", s, text, got)
		}
		if len(again.Rules) != len(sched.Rules) {
			t.Fatalf("Parse(%q): %d rules, %d after a round trip", s, len(sched.Rules), len(again.Rules))
		}
		for i, r := range sched.Rules {
			if always(again.Rules[i]) != always(r) {
				t.Fatalf("Parse(%q) rule %d: %+v, %+v after a round trip", s, i, r, again.Rules[i])
			}
		}
	})
}

// always maps P's two spellings of "fire whenever eligible" to one.
func always(r Rule) Rule {
	if r.P == 1 {
		r.P = 0
	}
	return r
}
