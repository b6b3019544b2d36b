// Package errcmp_clean holds the error-comparison idioms errcmp must
// accept.
package errcmp_clean

import (
	"errors"
	"fmt"
	"strings"
)

var ErrNodeDown = errors.New("node down")

// errors.Is survives wrapping: the approved comparison.
func Check(err error) bool {
	if errors.Is(err, ErrNodeDown) {
		return true
	}
	return err == nil // nil comparison is not a sentinel comparison
}

// Unexported, non-Err-pattern error values are somebody's local protocol,
// not a wrapped sentinel.
var errLocal = errors.New("local")

func Local(err error) bool { return err == errLocal }

// Reading a server-written detail for something other than its class is
// not classification: a hint parsed out of a reply whose code already said
// what it is, or a message trimmed of the prefix its class implies.
func Hint(detail string) bool { return strings.Contains(detail, "leader=") }

func Trim(base error, detail string) error {
	if rest, found := strings.CutPrefix(detail, base.Error()); found {
		return fmt.Errorf("%w%s", base, rest)
	}
	return fmt.Errorf("%w: %s", base, detail)
}

// Looking inside the sentinel's own text classifies nothing.
func Prefixed() bool { return strings.HasPrefix(ErrNodeDown.Error(), "node") }
