package policy

import "testing"

func TestRel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"powerrchol/internal/core", "internal/core"},
		{"example.com/internal/order", "internal/order"},
		{"powerrchol/cmd/pgoptcheck", "cmd/pgoptcheck"},
		{"powerrchol", "powerrchol"},
		{"example.com/sprinternal/x", "example.com/sprinternal/x"}, // no false match mid-segment
	} {
		if got := Rel(tc.in); got != tc.want {
			t.Errorf("Rel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestClassification(t *testing.T) {
	for _, tc := range []struct {
		path string
		hot  bool
	}{
		{"powerrchol/internal/core", true},
		{"powerrchol/internal/core/sub", true},
		{"example.com/internal/sparse", true},
		{"powerrchol/internal/order", false},
		{"powerrchol/internal/bench", false},
		{"powerrchol", false},
		{"powerrchol/cmd/pgsolve", false},
		{"powerrchol/internal/corex", false}, // prefix must respect path segments
	} {
		if got := Hot(tc.path); got != tc.hot {
			t.Errorf("Hot(%q) = %v, want %v", tc.path, got, tc.hot)
		}
	}
}
