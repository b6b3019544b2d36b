// Bridgevet machine-checks the sim determinism contract (see DESIGN.md,
// "Determinism contract & static enforcement"). It runs ten analyzers —
// simdeterminism, maporder, rawgoroutine, lockedblock, errcmp, obsexport,
// spanend, journalorder, syncerr, untimedwait — over Go packages and
// reports every violation.
//
// It speaks three protocols:
//
//   - As a vet tool. cmd/go invokes it once per package with a *.cfg file;
//     this is the supported way to sweep the repository:
//
//     go build -o /tmp/bridgevet ./cmd/bridgevet
//     go vet -vettool=/tmp/bridgevet ./...
//
//   - Standalone, with package patterns. It re-executes the command above
//     on itself, so `bridgevet ./...` from the module root is equivalent:
//
//     go run ./cmd/bridgevet ./...
//
//   - Machine-readable, with -json. It sweeps the module in-process (one
//     loader shares type-checking across packages; one shared fact store
//     shares CFG construction across analyzers) and prints a sorted JSON
//     array of findings, which CI turns into GitHub annotations:
//
//     go run ./cmd/bridgevet -json
//
// Individual findings are suppressed with a directive comment naming one
// analyzer on one line, with a reason:
//
//	t0 := time.Now() //bridgevet:allow simdeterminism — host-side log stamp
//
// Exit status is nonzero if any diagnostic is reported.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"bridge/internal/analysis/suite"
)

// selfID hashes this binary; "gopher" is the unitchecker-compatible
// fallback when the executable cannot be read.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "gopher"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "gopher"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "gopher"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func main() {
	progname := filepath.Base(os.Args[0])
	var (
		printVersion = flag.String("V", "", "print version and exit (cmd/go protocol)")
		printFlags   = flag.Bool("flags", false, "print analyzer flags in JSON (cmd/go protocol)")
		listChecks   = flag.Bool("list", false, "list the analyzers and exit")
		jsonOut      = flag.Bool("json", false, "sweep the module in-process and print findings as JSON")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [packages] | %s <vet-config>.cfg\n\nAnalyzers:\n", progname, progname)
		for _, a := range suite.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Summary())
		}
	}
	flag.Parse()

	switch {
	case *printVersion != "":
		// cmd/go runs `bridgevet -V=full` and uses the trailing buildid as
		// the tool's cache key; hashing our own binary makes vet results
		// invalidate whenever the analyzers change.
		fmt.Printf("%s version devel buildID=%s\n", progname, selfID())
		return
	case *printFlags:
		// cmd/go queries `-flags` to learn which vet flags the tool
		// accepts; bridgevet always runs its full suite.
		fmt.Println("[]")
		return
	case *listChecks:
		for _, a := range suite.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Summary())
		}
		return
	case *jsonOut:
		os.Exit(jsonSweep(flag.Args()))
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	os.Exit(standalone(args))
}

// standalone re-invokes this binary through `go vet -vettool=`, which
// handles package loading, export data, and per-package caching.
func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bridgevet: cannot locate own binary: %v\n", err)
		return 1
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "bridgevet: %v\n", err)
		return 1
	}
	return 0
}
