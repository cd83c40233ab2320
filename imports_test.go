package cicero_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestImportGraph fails when a package links one it must not. The
// deployable commands link none of the evaluation's packages: the
// baselines, the simulated user study, the experiment harness and the
// relational-algebra reference plans are comparison points, not part of
// pre-processing or answering a voice query. The pipeline returns a
// store and links no snapshot writer: writing the artifact is the
// commands' job (cmd/summarize, cmd/serve).
func TestImportGraph(t *testing.T) {
	evaluation := []string{
		"cicero/internal/baseline",
		"cicero/internal/userstudy",
		"cicero/internal/experiments",
		"cicero/internal/relalg",
	}
	rules := []struct {
		pkgs, banned []string
	}{
		{[]string{"./cmd/serve", "./cmd/router", "./cmd/summarize", "./cmd/voicequery"}, evaluation},
		{[]string{"./internal/pipeline"}, []string{"cicero/internal/snapshot"}},
	}
	for _, rule := range rules {
		for _, pkg := range rule.pkgs {
			out, err := exec.Command("go", "list", "-deps", pkg).Output()
			if err != nil {
				t.Fatalf("go list -deps %s: %v", pkg, err)
			}
			deps := strings.Fields(string(out))
			for _, banned := range rule.banned {
				if slices.Contains(deps, banned) {
					t.Errorf("%s links %s", pkg, banned)
				}
			}
		}
	}
}
