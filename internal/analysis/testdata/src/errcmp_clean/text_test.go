package errcmp_clean

import (
	"strings"
	"testing"
)

// A test may look for a sentinel's text: asserting what a message says is
// not deciding what an error is.
func TestMessageNamesTheClass(t *testing.T) {
	if msg := "tool failed: " + ErrNodeDown.Error(); !strings.Contains(msg, ErrNodeDown.Error()) {
		t.Fatal(msg)
	}
}
