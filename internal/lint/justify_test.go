package lint_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// An analyzer keeps its place in the suite only while some regression it
// catches gets past every runtime suite: tier-1, `make race` and
// `make soak`. The tests in this file plant such a regression in a copy
// of a real source file, handed to `go vet` through -overlay, and assert
// that pglint reports it.

// TestSendblockCatchesWedgedBatcher is sendblock's justification. With
// the Batcher's per-request response channel unbuffered, a client that
// hangs up after its request was accepted strands the dispatcher on the
// send forever, and every later request on that solver times out. The
// soak counts those timeouts as legal chaos and its goroutine-leak gate
// tolerates the parked dispatcher. Tier-1 and the race run fail only
// when the scheduler lets TestBatcherPreCancelledMember's dead request
// reach the dispatcher, which reruns almost never do.
func TestSendblockCatchesWedgedBatcher(t *testing.T) {
	if testing.Short() {
		t.Skip("vets internal/session and its dependencies; skipped in -short runs")
	}
	root, bin := buildPglint(t)
	path := filepath.Join(root, "internal", "session", "batch.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const site = "resp: make(chan solveResp, 1)}"
	if strings.Count(string(src), site) != 1 {
		t.Fatalf("%s no longer holds the response channel site %q: plant the mutation where the Batcher now lives", path, site)
	}
	dir := t.TempDir()
	mutated := filepath.Join(dir, "batch.go")
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), site, "resp: make(chan solveResp)}", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
	if err != nil {
		t.Fatal(err)
	}
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "-overlay="+overlayPath, "./internal/session")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "may block forever on a channel send") {
		t.Fatalf("pglint missed the unbuffered Batcher response channel (err = %v):\n%s", err, out)
	}
}
