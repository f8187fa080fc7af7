package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// postRaw posts body to url and returns the status, the Retry-After
// header and the response body.
func postRaw(t *testing.T, url, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), buf.String()
}

// TestSolveAndStudyShareRHSChecks: /v1/solve and /v1/study check a
// right-hand side with the same code, so a malformed one gets the same
// status and the same error text from both. JSON has no NaN, so a NaN
// is refused by the body decode, again alike on both.
func TestSolveAndStudyShareRHSChecks(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: testOptions()})
	grid, n := ingestTestGrid(t, ts.URL, 6, 6)
	dense := strings.Repeat("0.5,", n-1) + "0.5"

	for _, tc := range []struct{ name, rhs string }{
		{"both shapes", `"b":[` + dense + `],"nodes":[0],"values":[1]`},
		{"no shape", ``},
		{"length mismatch", `"nodes":[0,1],"values":[1]`},
		{"negative node", `"nodes":[-1],"values":[1]`},
		{"NaN in b", `"b":[NaN]`},
		{"NaN in values", `"nodes":[0],"values":[NaN]`},
		{"b shorter than the grid", `"b":[1,2]`},
		{"node past the grid", fmt.Sprintf(`"nodes":[%d],"values":[1]`, n)},
	} {
		body := func(extra string) string {
			fields := []string{fmt.Sprintf(`"grid":%q`, grid)}
			for _, f := range []string{extra, tc.rhs} {
				if f != "" {
					fields = append(fields, f)
				}
			}
			return "{" + strings.Join(fields, ",") + "}"
		}
		solveStatus, _, solveBody := postRaw(t, ts.URL+"/v1/solve", body(""))
		studyStatus, _, studyBody := postRaw(t, ts.URL+"/v1/study", body(`"kind":"transient"`))
		if solveStatus != http.StatusBadRequest {
			t.Errorf("%s: solve status %d, want 400 (%s)", tc.name, solveStatus, solveBody)
		}
		if studyStatus != solveStatus || studyBody != solveBody {
			t.Errorf("%s: study answered %d %q, solve %d %q", tc.name, studyStatus, studyBody, solveStatus, solveBody)
		}
	}
}

// TestDrainRefusesStudyLikeSolve: a draining server refuses a study with
// the 503, Retry-After and error text it refuses a solve with.
func TestDrainRefusesStudyLikeSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{Options: testOptions()})
	grid, n := ingestTestGrid(t, ts.URL, 6, 6)
	s.draining.Store(true)
	defer s.draining.Store(false)

	b := strings.Repeat("0.5,", n-1) + "0.5"
	solveStatus, solveRetry, solveBody := postRaw(t, ts.URL+"/v1/solve",
		fmt.Sprintf(`{"grid":%q,"b":[%s]}`, grid, b))
	studyStatus, studyRetry, studyBody := postRaw(t, ts.URL+"/v1/study",
		fmt.Sprintf(`{"grid":%q,"kind":"transient","b":[%s]}`, grid, b))
	if solveStatus != http.StatusServiceUnavailable || solveRetry == "" {
		t.Fatalf("draining solve: status %d, Retry-After %q, want 503 with Retry-After", solveStatus, solveRetry)
	}
	if studyStatus != solveStatus || studyRetry != solveRetry || studyBody != solveBody {
		t.Fatalf("draining study answered %d (Retry-After %q) %q; solve %d (Retry-After %q) %q",
			studyStatus, studyRetry, studyBody, solveStatus, solveRetry, solveBody)
	}
	if got := s.Stats().Refused; got != 2 {
		t.Fatalf("refused = %d after one solve and one study, want 2", got)
	}
}
