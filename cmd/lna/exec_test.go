package main

// Process-level tests: they build the real lna and experiments
// binaries and assert the documented exit-code policy and the serve
// daemon's wire behaviour, exactly as a user would see them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"localalias/internal/drivergen"
	"localalias/internal/parser"
	"localalias/internal/service"
)

// buildOnce builds both command binaries into one temp dir, shared by
// every test in the file.
var buildOnce = sync.OnceValues(func() (map[string]string, error) {
	dir, err := os.MkdirTemp("", "lna-exec-test")
	if err != nil {
		return nil, err
	}
	bins := make(map[string]string)
	for _, pkg := range []string{"lna", "experiments"} {
		bin := filepath.Join(dir, pkg)
		cmd := exec.Command("go", "build", "-o", bin, "localalias/cmd/"+pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building %s: %v\n%s", pkg, err, out)
		}
		bins[pkg] = bin
	}
	return bins, nil
})

func binaries(t *testing.T) map[string]string {
	t.Helper()
	bins, err := buildOnce()
	if err != nil {
		t.Fatal(err)
	}
	return bins
}

// run executes a built binary and returns stdout, stderr, and the
// exit code.
func run(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

const fixtureDir = "../../internal/golden/testdata"

// TestExitPolicyAgreement: both binaries follow the one documented
// exit-code table — 0 clean, 1 findings, 2 usage/IO, 3 degraded — for
// every outcome class a user can trigger from the command line.
func TestExitPolicyAgreement(t *testing.T) {
	bins := binaries(t)
	clean := filepath.Join(fixtureDir, "clean_annotated.mc")
	violation := filepath.Join(fixtureDir, "restrict_double.mc")

	cases := []struct {
		name string
		bin  string
		args []string
		want int
	}{
		{"lna clean check", "lna", []string{"check", clean}, service.ExitClean},
		{"lna violation", "lna", []string{"check", violation}, service.ExitFindings},
		{"lna violation json", "lna", []string{"check", "-json", violation}, service.ExitFindings},
		{"lna no args", "lna", nil, service.ExitUsage},
		{"lna unknown subcommand", "lna", []string{"optimize"}, service.ExitUsage},
		{"lna missing file", "lna", []string{"check", "no_such_file.mc"}, service.ExitUsage},
		{"lna stranded flag", "lna", []string{"-json"}, service.ExitUsage},
		{"experiments unknown flag", "experiments", []string{"-no-such-flag"}, service.ExitUsage},
		{"experiments bad dump dir", "experiments", []string{"-dump", "/dev/null/nope"}, service.ExitUsage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := run(t, bins[tc.bin], tc.args...)
			if code != tc.want {
				t.Errorf("%s %v: exit %d, want %d\nstderr: %s", tc.bin, tc.args, code, tc.want, stderr)
			}
		})
	}
}

// TestCheckJSONIsCanonicalResponse: `lna check -json` emits exactly
// the canonical AnalyzeResponse the service engine produces.
func TestCheckJSONIsCanonicalResponse(t *testing.T) {
	bins := binaries(t)
	file := filepath.Join(fixtureDir, "clean_annotated.mc")
	stdout, _, code := run(t, bins["lna"], "check", "-json", file)
	if code != service.ExitClean {
		t.Fatalf("exit %d, want 0", code)
	}
	var resp service.AnalyzeResponse
	if err := json.Unmarshal([]byte(stdout), &resp); err != nil {
		t.Fatalf("stdout is not an AnalyzeResponse: %v\n%s", err, stdout)
	}
	if resp.APIVersion != service.APIVersion || resp.Mode != service.ModeCheck || !resp.OK {
		t.Errorf("response = %+v", resp)
	}
}

// TestQualConfineKeepsScoping: well-typed programs whose lock pairs
// straddle a let used after the unlock, or lock through names bound by
// separate let-in scopes, analyze cleanly: confine inference must not
// plant a scope that changes what a name means.
func TestQualConfineKeepsScoping(t *testing.T) {
	bins := binaries(t)
	dir := t.TempDir()
	for name, src := range map[string]string{
		"let_after.mc": `struct dev { l: lock; v: int; }
fun f(d: ref dev): int {
    spin_lock(&d->l);
    let y = d->v;
    spin_unlock(&d->l);
    return y;
}
`,
		"bound_in_range.mc": `struct dev { l: lock; v: int; }
fun f(p: ref dev) {
    let q = p in { spin_lock(&q->l); }
    let q = p in { spin_unlock(&q->l); }
}
`,
	} {
		file := filepath.Join(dir, name)
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"qual", "confine"} {
			stdout, stderr, code := run(t, bins["lna"], mode, file)
			if code != service.ExitClean {
				t.Errorf("lna %s %s: exit %d, want 0\n%s%s", mode, name, code, stdout, stderr)
			}
		}
	}
}

// nestedProgram mirrors the parser tests' shapes: a program whose
// innermost node sits at nesting level levels (parser.MaxNesting).
func nestedProgram(shape string, levels int) string {
	switch shape {
	case "parens":
		k := levels - 2
		return "fun main() { let x = " + strings.Repeat("(", k) + "1" + strings.Repeat(")", k) + "; }\n"
	case "prefix":
		return "fun main() { let x = " + strings.Repeat("-", levels-2) + "1; }\n"
	default:
		return "fun main() " + strings.Repeat("{", levels) + strings.Repeat("}", levels) + "\n"
	}
}

// TestNestingLimitSubcommands: every subcommand finishes cleanly on a
// program nested exactly to the parser's limit, and a million levels
// (about 2 MB) is a positioned parse error rather than a stack
// overflow that kills the process, rendered in under a kilobyte.
func TestNestingLimitSubcommands(t *testing.T) {
	bins := binaries(t)
	dir := t.TempDir()
	for _, shape := range []string{"parens", "prefix", "blocks"} {
		atLimit := filepath.Join(dir, shape+"_limit.mc")
		probe := filepath.Join(dir, shape+"_probe.mc")
		if err := os.WriteFile(atLimit, []byte(nestedProgram(shape, parser.MaxNesting)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(probe, []byte(nestedProgram(shape, 1_000_000)), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, sub := range []string{"check", "infer", "confine", "qual", "run", "fmt"} {
			if stdout, stderr, code := run(t, bins["lna"], sub, atLimit); code != service.ExitClean {
				t.Errorf("lna %s %s: exit %d, want 0\n%.500s%.500s", sub, shape, code, stdout, stderr)
			}
		}
		stdout, stderr, code := run(t, bins["lna"], "check", probe)
		if code != service.ExitFindings || !strings.Contains(stdout+stderr, "_probe.mc:1:") ||
			!strings.Contains(stdout+stderr, "nesting too deep") {
			t.Errorf("lna check %s probe: exit %d, want 1 with a positioned nesting diagnostic\n%.300s%.300s",
				shape, code, stdout, stderr)
		}
		// The probe is one 2 MB line; its diagnostic's excerpt is
		// clipped around the span instead of echoing the line.
		if n := len(stdout) + len(stderr); n >= 1024 {
			t.Errorf("lna check %s probe: %d bytes of output, want under 1 KB\n%.300s", shape, n, stdout+stderr)
		}
	}
}

// startServe launches `lna serve` on a free port and returns its base
// URL plus a shutdown function that SIGTERMs the daemon and asserts a
// clean drain.
func startServe(t *testing.T, bin string, extraArgs ...string) (string, func()) {
	t.Helper()
	return startProc(t, bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, extraArgs...))
}

// startGateway launches `lna gateway` over the given backends on a
// free port, with the same banner/drain contract as startServe.
func startGateway(t *testing.T, bin string, backends []string, extraArgs ...string) (string, func()) {
	t.Helper()
	args := append([]string{"gateway", "-addr", "127.0.0.1:0", "-backends", strings.Join(backends, ",")}, extraArgs...)
	return startProc(t, bin, args)
}

// startProc launches one lna server process (serve or gateway), waits
// for the listening banner, and returns the base URL plus a shutdown
// function that SIGTERMs the process and asserts a clean drain.
func startProc(t *testing.T, bin string, args []string) (string, func()) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// The startup banner carries the bound address:
	// "lna serve listening on http://127.0.0.1:PORT (...)".
	addrCh := make(chan string, 1)
	rest := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var line strings.Builder
		for {
			n, err := stdout.Read(buf)
			line.Write(buf[:n])
			s := line.String()
			if i := strings.Index(s, "http://"); i >= 0 {
				if j := strings.IndexAny(s[i+7:], " \n"); j >= 0 {
					addrCh <- s[i+7 : i+7+j]
					break
				}
			}
			if err != nil {
				addrCh <- ""
				break
			}
		}
		drained, _ := io.ReadAll(stdout)
		rest <- string(drained)
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("lna serve never announced its address\nstderr: %s", stderr.String())
	}
	return "http://" + addr, func() {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM: %v", err)
		}
		if err := cmd.Wait(); err != nil {
			t.Errorf("serve did not drain cleanly: %v\nstderr: %s", err, stderr.String())
		}
		if tail := <-rest; !strings.Contains(tail, "drained") {
			t.Errorf("drain summary missing from serve output: %q", tail)
		}
	}
}

// TestServeSmoke is the end-to-end daemon exercise the CI smoke job
// runs: start `lna serve` on a random port, submit a 20-module
// generated batch twice, and require the second pass to be served at
// least 90%% from cache; then verify the /v1/analyze body matches
// `lna check -json` byte for byte, and that SIGTERM drains cleanly.
func TestServeSmoke(t *testing.T) {
	bins := binaries(t)
	base, shutdown := startServe(t, bins["lna"])
	defer shutdown()

	var batch service.BatchRequest
	for _, spec := range drivergen.Corpus()[:20] {
		batch.Requests = append(batch.Requests, service.AnalyzeRequest{
			Module: spec.Name + ".mc",
			Source: spec.Source(),
		})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(pass int) service.BatchResponse {
		resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, resp.StatusCode, data)
		}
		var out service.BatchResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		return out
	}
	first := submit(1)
	if first.Summary.Modules != 20 || first.Summary.Failures != 0 {
		t.Fatalf("first pass summary = %+v", first.Summary)
	}
	second := submit(2)
	if second.Summary.CacheHits < 18 {
		t.Errorf("second pass served %d/20 from cache, want >= 18 (90%%)", second.Summary.CacheHits)
	}

	// The documented curl round-trip: POST the file to /v1/analyze and
	// get exactly the bytes `lna check -json FILE` prints.
	file := filepath.Join(fixtureDir, "clean_annotated.mc")
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(service.AnalyzeRequest{
		Module:  file,
		Source:  string(src),
		Options: service.AnalyzeOptions{Mode: service.ModeCheck},
	})
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", httpResp.StatusCode, served)
	}
	cliOut, _, code := run(t, bins["lna"], "check", "-json", file)
	if code != service.ExitClean {
		t.Fatalf("lna check -json exit %d", code)
	}
	if string(served) != cliOut {
		t.Errorf("served response differs from `lna check -json`:\n--- served\n%s\n--- cli\n%s", served, cliOut)
	}
}

// TestGatewaySmoke is the end-to-end gateway exercise the CI smoke job
// runs: two real `lna serve` replicas behind a real `lna gateway`
// process. The remote CLI round-trip through the gateway must be
// byte-identical to a local run, a replayed batch must hit the cache
// fully (affinity), and SIGTERM must drain both tiers cleanly.
func TestGatewaySmoke(t *testing.T) {
	bins := binaries(t)
	baseA, shutdownA := startServe(t, bins["lna"])
	defer shutdownA()
	baseB, shutdownB := startServe(t, bins["lna"])
	defer shutdownB()
	gw, shutdownGW := startGateway(t, bins["lna"], []string{baseA, baseB})
	defer shutdownGW()

	// Remote CLI through the gateway == local CLI, byte for byte.
	file := filepath.Join(fixtureDir, "clean_annotated.mc")
	remoteOut, stderr, code := run(t, bins["lna"], "check", "-json", "-remote", gw, file)
	if code != service.ExitClean {
		t.Fatalf("lna check -remote exit %d\nstderr: %s", code, stderr)
	}
	localOut, _, code := run(t, bins["lna"], "check", "-json", file)
	if code != service.ExitClean {
		t.Fatalf("lna check -json exit %d", code)
	}
	if remoteOut != localOut {
		t.Errorf("gateway-relayed response differs from local run:\n--- remote\n%s\n--- local\n%s", remoteOut, localOut)
	}

	// A batch replayed through the gateway hits the cache fully: the
	// consistent-hash routing sent every module back to the replica
	// that analyzed it the first time.
	var batch service.BatchRequest
	for _, spec := range drivergen.Corpus()[:20] {
		batch.Requests = append(batch.Requests, service.AnalyzeRequest{
			Module: spec.Name + ".mc",
			Source: spec.Source(),
		})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(pass int) service.BatchResponse {
		resp, err := http.Post(gw+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, resp.StatusCode, data)
		}
		var out service.BatchResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		return out
	}
	first := submit(1)
	if first.Summary.Modules != 20 || first.Summary.Failures != 0 || first.Summary.Rejected != 0 {
		t.Fatalf("first pass summary = %+v", first.Summary)
	}
	second := submit(2)
	if second.Summary.CacheHits != 20 {
		t.Errorf("replay through gateway hit %d/20 — cache affinity lost", second.Summary.CacheHits)
	}

	// The open-loop load harness against the same gateway: a short warm
	// replay must complete without transport errors and hit fully.
	benchOut, stderr, code := run(t, bins["lna"], "bench",
		"-remote", gw, "-rps", "100", "-duration", "500ms", "-modules", "10", "-replay", "-json")
	if code != service.ExitClean {
		t.Fatalf("lna bench exit %d\nstderr: %s", code, stderr)
	}
	var rep struct {
		Completed int     `json:"completed"`
		Errors    int     `json:"errors"`
		HitRate   float64 `json:"hit_rate"`
	}
	if err := json.Unmarshal([]byte(benchOut), &rep); err != nil {
		t.Fatalf("bench output is not a report: %v\n%s", err, benchOut)
	}
	if rep.Completed == 0 || rep.Errors != 0 {
		t.Errorf("bench report = %+v; want completed traffic with no transport errors", rep)
	}
	if rep.HitRate != 1 {
		t.Errorf("bench warm replay hit rate %v, want 1", rep.HitRate)
	}
}

// TestCrossModuleCLI: the -lib flag drives the whole-program pass from
// the command line, and the two cross-module failure classes — missing
// package and import cycle — get the uniform "import error" stderr
// text and the shared exit-code table's findings code (1). A -lib
// outside confine/qual is a usage error (2).
func TestCrossModuleCLI(t *testing.T) {
	bins := binaries(t)
	dir := t.TempDir()
	write := func(name, src string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// A real multi-module stack: the leaf driver plus its three
	// libraries, each library file named after its import name.
	mods := drivergen.XStack(1)
	var libArgs []string
	var leafFile string
	for _, m := range mods {
		path := write(m.Name+".mc", m.Source)
		if m.Name == mods[len(mods)-1].Name {
			leafFile = path
		} else {
			libArgs = append(libArgs, "-lib", path)
		}
	}
	args := append([]string{"qual"}, append(libArgs, leafFile)...)
	stdout, stderr, code := run(t, bins["lna"], args...)
	if code != service.ExitFindings {
		t.Fatalf("qual with libraries exit %d, want %d\nstderr: %s", code, service.ExitFindings, stderr)
	}
	// The leaf's summary-mode findings include the cross-module bug at
	// the imported call site (xdrv00 carries the split double-acquire).
	if !strings.Contains(stdout, "xio.pulse") {
		t.Errorf("report does not attribute the cross-module bug to the call site:\n%s", stdout)
	}

	// Missing package: uniform text, findings exit code.
	app := write("app.mc", "import \"ghost\";\nfun f() { work(); }\n")
	_, stderr, code = run(t, bins["lna"], "qual", app)
	if code != service.ExitFindings {
		t.Errorf("missing package exit %d, want %d", code, service.ExitFindings)
	}
	if !strings.Contains(stderr, "lna: import error at ") ||
		!strings.Contains(stderr, "app.mc:1:") ||
		!strings.Contains(stderr, `cannot resolve import "ghost"`) {
		t.Errorf("missing uniform import-error line for a missing package:\n%s", stderr)
	}

	// Import cycle between two libraries: same uniform text, same code.
	cycA := write("cyca.mc", "import \"cycb\";\nfun fa() { cycb.fb(); }\n")
	cycB := write("cycb.mc", "import \"cyca\";\nfun fb() { cyca.fa(); }\n")
	top := write("top.mc", "import \"cyca\";\nfun main(): int { return 0; }\n")
	_, stderr, code = run(t, bins["lna"], "qual", "-lib", cycA, "-lib", cycB, top)
	if code != service.ExitFindings {
		t.Errorf("import cycle exit %d, want %d", code, service.ExitFindings)
	}
	if !strings.Contains(stderr, "lna: import error at ") ||
		!strings.Contains(stderr, "import cycle: ") {
		t.Errorf("missing uniform import-error line for a cycle:\n%s", stderr)
	}

	// -lib outside confine/qual is rejected before any analysis runs.
	if _, stderr, code := run(t, bins["lna"], "check", "-lib", cycA, top); code != service.ExitUsage ||
		!strings.Contains(stderr, "-lib is only supported") {
		t.Errorf("check -lib exit %d (stderr %q), want usage error", code, stderr)
	}
}

// TestRemoteExitCodes: the -remote path maps wire errors onto the same
// exit-code table as local runs.
func TestRemoteExitCodes(t *testing.T) {
	bins := binaries(t)
	base, shutdown := startServe(t, bins["lna"])
	defer shutdown()

	violation := filepath.Join(fixtureDir, "restrict_double.mc")
	if _, _, code := run(t, bins["lna"], "check", "-remote", base, violation); code != service.ExitFindings {
		t.Errorf("remote violation exit %d, want %d", code, service.ExitFindings)
	}
	// An unreachable target is an IO error, not a finding.
	if _, _, code := run(t, bins["lna"], "check", "-remote", "http://127.0.0.1:1", violation); code != service.ExitUsage {
		t.Errorf("unreachable remote exit %d, want %d", code, service.ExitUsage)
	}
	// Gateway with no backends refuses to start with a usage error.
	if _, _, code := run(t, bins["lna"], "gateway", "-addr", "127.0.0.1:0"); code != service.ExitUsage {
		t.Errorf("gateway without backends exit %d, want %d", code, service.ExitUsage)
	}
	// Bench without a target likewise.
	if _, _, code := run(t, bins["lna"], "bench", "-rps", "10", "-duration", "100ms"); code != service.ExitUsage {
		t.Errorf("bench without -remote exit %d, want %d", code, service.ExitUsage)
	}
}
