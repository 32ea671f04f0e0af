package main

import (
	"bufio"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"eum/internal/config"
)

func parse(t *testing.T, args ...string) (config.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("eumdns", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, _, _, err := loadConfig(fs, args)
	return cfg, err
}

// writeDoc writes a -config document into a fresh temporary directory and
// returns its path.
func writeDoc(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "eumdns.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDurationFlagTruncation: -map-fetch lands in the whole-second
// map_fetch_seconds, where 0 selects the default, so a cadence below a
// second, which would truncate to it, is refused by name and unit. A
// whole-second value applies, and an explicit 0 keeps the default.
func TestDurationFlagTruncation(t *testing.T) {
	replica := []string{"-mapmaker-addr", "127.0.0.1:9300"}
	for _, value := range []string{"500ms", "-500ms"} {
		_, err := parse(t, append([]string{"-map-fetch", value}, replica...)...)
		if err == nil {
			t.Errorf("-map-fetch %s accepted", value)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "-map-fetch") || !strings.Contains(msg, "1s") {
			t.Errorf("-map-fetch %s: error %q does not name the flag and its unit 1s", value, msg)
		}
	}
	for value, want := range map[string]time.Duration{"1s": time.Second, "0": 5 * time.Second} {
		cfg, err := parse(t, append([]string{"-map-fetch", value}, replica...)...)
		if err != nil {
			t.Fatalf("-map-fetch %s: %v", value, err)
		}
		if got := cfg.FetchInterval(); got != want {
			t.Errorf("-map-fetch %s fetches every %v, want %v", value, got, want)
		}
	}
}

// TestRoleFlagsOverlay: the listen and role flags apply identically on top
// of the defaults and on top of a -config document (the benchmark harness
// starts its replica the second way), and everything else comes from the
// document. No role flag is dropped: -map-fetch reaches a replica the
// document declares, -mapmaker-addr alone keeps the document's cadence, and
// a combination that cannot take effect is refused.
func TestRoleFlagsOverlay(t *testing.T) {
	path := writeDoc(t, `{"zone": "cdn.example.net", "policy": "eu", "map_refresh_seconds": 7,
		"world": {"seed": 3, "blocks": 900}, "platform": {"seed": 3, "deployments": 40}}`)
	role := []string{"-mapmaker-addr", "127.0.0.1:9300", "-map-fetch", "1s", "-admin", "127.0.0.1:9301"}
	for name, args := range map[string][]string{
		"defaults": role,
		"config":   append([]string{"-config", path}, role...),
	} {
		cfg, err := parse(t, args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Mode != config.ModeReplica || cfg.MapMakerAddr != "127.0.0.1:9300" ||
			cfg.FetchInterval() != time.Second || cfg.AdminAddr != "127.0.0.1:9301" {
			t.Errorf("%s: role flags not applied: %+v", name, cfg)
		}
		wantBlocks, wantRefresh := 8000, 10
		if name == "config" {
			wantBlocks, wantRefresh = 900, 7
		}
		if cfg.World.Blocks != wantBlocks || cfg.MapRefreshSeconds != wantRefresh {
			t.Errorf("%s: blocks %d refresh %d, want %d and %d",
				name, cfg.World.Blocks, cfg.MapRefreshSeconds, wantBlocks, wantRefresh)
		}
	}

	replica := writeDoc(t, `{"zone": "cdn.example.net", "mode": "replica",
		"mapmaker_addr": "127.0.0.1:9300", "map_fetch_seconds": 3}`)
	if cfg, err := parse(t, "-config", replica, "-map-fetch", "2s"); err != nil || cfg.FetchInterval() != 2*time.Second {
		t.Errorf("-map-fetch 2s on a replica document: fetch %v, %v", cfg.FetchInterval(), err)
	}
	cfg, err := parse(t, "-config", replica, "-mapmaker-addr", "127.0.0.1:9400")
	if err != nil || cfg.MapMakerAddr != "127.0.0.1:9400" || cfg.FetchInterval() != 3*time.Second {
		t.Errorf("-mapmaker-addr on a replica document: source %q fetch %v, %v, want 127.0.0.1:9400 every 3s",
			cfg.MapMakerAddr, cfg.FetchInterval(), err)
	}

	cfg, err = parse(t, "-config", path, "-publisher", "-admin", "127.0.0.1:9301")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != config.ModePublisher || cfg.MapMakerAddr != "" {
		t.Errorf("publisher beside a config: %+v", cfg)
	}
	if _, err := parse(t, "-publisher"); err == nil {
		t.Error("-publisher without -admin accepted")
	}
	_, err = parse(t, "-publisher", "-mapmaker-addr", "127.0.0.1:9300", "-admin", "127.0.0.1:9301")
	if err == nil || !strings.Contains(err.Error(), "-publisher") || !strings.Contains(err.Error(), "-mapmaker-addr") {
		t.Errorf("-publisher beside -mapmaker-addr: error = %v, want one naming both flags", err)
	}
	for name, args := range map[string][]string{
		"defaults":  {"-map-fetch", "2s"},
		"config":    {"-config", path, "-map-fetch", "2s"},
		"publisher": {"-publisher", "-admin", "127.0.0.1:9301", "-map-fetch", "0"},
	} {
		if _, err := parse(t, args...); err == nil || !strings.Contains(err.Error(), "-map-fetch") {
			t.Errorf("%s: -map-fetch without a replica: error = %v, want one naming the flag", name, err)
		}
	}
}

// TestSettingFlagsRemoved: every setting is a key of the -config document,
// and the flags that copied one are gone — as are those of the build-time
// load monitor. Each is a parse error naming the flag, on its own and beside
// -config, rather than a value silently dropped.
func TestSettingFlagsRemoved(t *testing.T) {
	path := writeDoc(t, `{"zone": "cdn.example.net"}`)
	for _, tc := range [][2]string{
		{"zone", "example.org"},
		{"policy", "ns"},
		{"blocks", "900"},
		{"deployments", "40"},
		{"seed", "3"},
		{"map-refresh", "2s"},
		{"serve-deadline", "3ms"},
		{"rrl-rate", "20"},
		{"rrl-burst", "8"},
		{"shards", "2"},
		{"stale-max-age", "40s"},
		{"balance-factor", "2"},
		{"load-threshold", "0.8"},
	} {
		for _, args := range [][]string{
			{"-" + tc[0], tc[1]},
			{"-config", path, "-" + tc[0], tc[1]},
		} {
			_, err := parse(t, args...)
			if err == nil || !strings.Contains(err.Error(), "not defined: -"+tc[0]) {
				t.Errorf("%s: error = %v, want a parse error naming -%s", strings.Join(args, " "), err, tc[0])
			}
		}
	}
}

// TestDocumentedInvocationsParse: every eumdns command line in the README
// and the verify skill parses, so the docs cannot name a flag eumdns no
// longer has. A command line is one starting with /tmp/eumdns or `go run`
// of cmd/eumdns, with its backslash continuations joined, up to a comment,
// `&`, `&&`, `|` or `;`. Only flag errors fail it: a document the example
// names but the test does not have (deploy.json) is not its business.
func TestDocumentedInvocationsParse(t *testing.T) {
	for _, doc := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		lines := commandLines(t, doc)
		if len(lines) == 0 {
			t.Errorf("%s: no eumdns command lines found", doc)
		}
		for _, args := range lines {
			_, err := parse(t, args...)
			if err != nil && (strings.Contains(err.Error(), "provided but not defined") ||
				strings.Contains(err.Error(), "invalid value")) {
				t.Errorf("%s: eumdns %s: %v", doc, strings.Join(args, " "), err)
			}
		}
	}
}

// TestDocumentedNamesExist: every test, fuzz target and benchmark the
// README, DESIGN.md and EXPERIMENTS.md name is defined in a test file of
// this module, every `make <target>` they quote is a Makefile target, and
// every repository path they quote (`internal/<pkg>`, `cmd/<name>`,
// `examples/<name>`) is a directory, so the docs cannot send a reader to a
// test, a target or a package that is gone. A quoted make or path sits in a backtick span, or
// on a line of a fenced code block.
func TestDocumentedNamesExist(t *testing.T) {
	const root = "../.."
	testDef := regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)\w+)\(`)
	defined := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		// bench/ is a module of its own; .bench_build/ holds exported
		// parent trees.
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "bench")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testDef.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}

	testRef := regexp.MustCompile(`\b(?:Benchmark\w+|(?:Test|Fuzz)[A-Z]\w*)`)
	makeRef := regexp.MustCompile("`make ([\\w-]+)")
	codeSpan := regexp.MustCompile("`[^`]+`")
	pathRef := regexp.MustCompile(`(?:^|[\s(]|\./)((?:internal|cmd|examples)/[\w-]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range testRef.FindAllString(line, -1) {
				if !defined[name] {
					t.Errorf("%s:%d names %s, which no test file defines", doc, i+1, name)
				}
			}
			var made []string
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if f := strings.Fields(line); fenced && len(f) > 1 && f[0] == "make" {
				made = append(made, f[1])
			}
			for _, m := range makeRef.FindAllStringSubmatch(line, -1) {
				made = append(made, m[1])
			}
			for _, target := range made {
				if !targets[target] {
					t.Errorf("%s:%d quotes make %s, which is not a Makefile target", doc, i+1, target)
				}
			}
			code := codeSpan.FindAllString(line, -1)
			if fenced {
				code = []string{line}
			}
			for _, span := range code {
				for _, m := range pathRef.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
					if st, err := os.Stat(filepath.Join(root, m[1])); err != nil || !st.IsDir() {
						t.Errorf("%s:%d names %s, which is not a directory of this repository", doc, i+1, m[1])
					}
				}
			}
		}
	}
}

// commandLines returns the arguments of every eumdns invocation in a
// markdown file (see TestDocumentedInvocationsParse).
func commandLines(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		out    [][]string
		joined string
	)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cont, ok := strings.CutSuffix(line, `\`); ok {
			joined += cont + " "
			continue
		}
		fields := strings.Fields(joined + line)
		joined = ""
		start := -1
		switch {
		case len(fields) > 0 && fields[0] == "/tmp/eumdns":
			start = 1
		case len(fields) > 2 && fields[0] == "go" && fields[1] == "run" && strings.HasSuffix(fields[2], "cmd/eumdns"):
			start = 3
		}
		if start < 0 {
			continue
		}
		args := []string{}
		for _, a := range fields[start:] {
			if strings.HasPrefix(a, "#") || a == "&" || a == "&&" || a == "|" || a == ";" {
				break
			}
			args = append(args, a)
		}
		out = append(out, args)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
