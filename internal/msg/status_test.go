package msg

import (
	"errors"
	"fmt"
	"testing"
)

// Status.Err names each sentinel of its class once: in front of the detail
// when the detail does not hold it, not at all when it does, and errors.Is
// holds for every one either way.
func TestStatusErrSaysEachSentinelOnce(t *testing.T) {
	failed, corrupt := errors.New("op failed"), errors.New("corrupt volume")
	both := fmt.Errorf("%w: %w", failed, corrupt)
	for _, tc := range []struct {
		class        error
		detail, want string
	}{
		{failed, "op failed: node 3", "op failed: node 3"},
		{failed, "node 3 timed out", "op failed: node 3 timed out"},
		{failed, "", "op failed"},
		{both, "op failed: node 3: corrupt volume: block 7", "op failed: node 3: corrupt volume: block 7"},
		{both, "node 3: corrupt volume: block 7", "op failed: node 3: corrupt volume: block 7"},
		{both, "node 3", "op failed: corrupt volume: node 3"},
		{both, "", "op failed: corrupt volume"}, // both itself
		{nil, "no class", "no class"},
	} {
		err := Failed(1, tc.detail).Err(tc.class)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Err(%v) over %q = %v, want %q", tc.class, tc.detail, err, tc.want)
			continue
		}
		for _, s := range []error{failed, corrupt} {
			if want := tc.class != nil && errors.Is(tc.class, s); errors.Is(err, s) != want {
				t.Errorf("Err(%v) over %q: errors.Is %v = %v, want %v", tc.class, tc.detail, s, !want, want)
			}
		}
	}
	if err := Failed(1, "").Err(failed); err != failed {
		t.Errorf("an empty detail gives %v, want the class itself", err)
	}
	if err := (Status{}).Err(failed); err != nil {
		t.Errorf("a success is %v, want nil", err)
	}
}
