package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildOnce compiles the command once per test binary; acceptance tests
// exec the real executable so flag validation and exit codes are tested
// at the process boundary, exactly as a user hits them.
var buildOnce sync.Once
var builtPath string
var buildErr error

func shiftrunBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		builtPath = filepath.Join(os.TempDir(), "shiftrun-under-test")
		out, err := exec.Command("go", "build", "-o", builtPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			builtPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building shiftrun: %v\n%s", buildErr, builtPath)
	}
	return builtPath
}

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(shiftrunBin(t), args...)
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errb.String()
}

func writeProg(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.mc")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tinyProg = `
char buf[16];
void main() {
	int n = recv(buf, 16);
	int i;
	int acc = 0;
	for (i = 0; i < n; i++) acc += buf[i];
	print_int(acc);
	putc('\n');
	exit(0);
}
`

// A -tagpipe value other than 0 or 1 is a usage error (exit 2), not a
// silent fallback.
func TestTagpipeFlagValidation(t *testing.T) {
	prog := writeProg(t, tinyProg)
	for _, bad := range []string{"-1", "2", "257", "1000000"} {
		code, _, errb := runCmd(t, "-tagpipe", bad, prog)
		if code != 2 {
			t.Errorf("-tagpipe %s: exit %d, want 2 (stderr: %s)", bad, code, errb)
		}
		if !strings.Contains(errb, "tagpipe") {
			t.Errorf("-tagpipe %s: stderr lacks a usage message: %q", bad, errb)
		}
	}
}

// An unknown -engine is likewise exit 2 with a usage error.
func TestEngineFlagValidation(t *testing.T) {
	prog := writeProg(t, tinyProg)
	code, _, errb := runCmd(t, "-engine", "jit", prog)
	if code != 2 || !strings.Contains(errb, "engine") {
		t.Errorf("-engine jit: exit %d, stderr %q; want 2 with a usage message", code, errb)
	}
}

// -tagpipe 1 runs the program under the sink-granular checker: same guest
// output and exit status as the unchecked run, plus a checker stats line.
func TestTagpipeRunMatchesInline(t *testing.T) {
	prog := writeProg(t, tinyProg)
	common := []string{"-protect", "-net", "hello worlds!", prog}

	code, inlineOut, errb := runCmd(t, common...)
	if code != 0 {
		t.Fatalf("inline run: exit %d\n%s", code, errb)
	}
	code, pipedOut, errb := runCmd(t, append([]string{"-tagpipe", "1"}, common...)...)
	if code != 0 {
		t.Fatalf("checked run: exit %d\n%s", code, errb)
	}
	stats := ""
	for _, line := range strings.Split(pipedOut, "\n") {
		if strings.HasPrefix(line, "tagpipe: ") {
			stats = line
		}
	}
	if stats == "" {
		t.Fatalf("checked run printed no checker stats:\n%s", pipedOut)
	}
	if got := strings.Replace(pipedOut, stats+"\n", "", 1); got != inlineOut {
		t.Errorf("guest output differs:\ninline:  %q\npiped:   %q", inlineOut, got)
	}
	if strings.Contains(stats, " 0 records") {
		t.Errorf("checker reported no records: %s", stats)
	}
}

// -tagpipe 0 is the documented inline default and must not print stats.
func TestTagpipeZeroIsInline(t *testing.T) {
	prog := writeProg(t, tinyProg)
	code, out, errb := runCmd(t, "-tagpipe", "0", "-protect", "-net", "x", prog)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errb)
	}
	if strings.Contains(out, "tagpipe:") {
		t.Errorf("-tagpipe 0 printed checker stats:\n%s", out)
	}
}
