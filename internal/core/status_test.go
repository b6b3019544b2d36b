package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bridge/internal/msg"
)

// Every code stands for its sentinel and only its sentinel, both ways: the
// server's statusFor picks the code from a typed error, the client's
// statusErr rebuilds the sentinel from the code, and the detail — whatever
// it says, including another sentinel's words — rides along as text.
func TestStatusRoundTripsEverySentinel(t *testing.T) {
	for code, base := range classes {
		if base == nil {
			continue
		}
		tangled := ErrNotLeader.Error()
		if errors.Is(base, ErrNotLeader) {
			tangled = ErrNotFound.Error()
		}
		err := fmt.Errorf("%w: while reading block 17 of file %q", base, tangled)
		st := statusFor(err)
		if int(st.Code()) != code || st.Detail() != err.Error() {
			t.Errorf("statusFor(%v) = code %d, detail %q; want code %d and the error's text", err, st.Code(), st.Detail(), code)
		}
		got := statusErr(st)
		if !strings.Contains(got.Error(), "block 17") {
			t.Errorf("statusErr lost the detail of %v: %v", err, got)
		}
		for other, sentinel := range classes {
			want := other == code || errors.Is(base, sentinel)
			if sentinel != nil && errors.Is(got, sentinel) != want {
				t.Errorf("statusErr(code %d) is %v: %v, want %v", code, sentinel, !want, want)
			}
		}
	}
	if err := statusErr(statusFor(nil)); err != nil {
		t.Errorf("a nil error round-trips to %v", err)
	}
	// No class, or a code from some other table: an opaque error, not nil,
	// with the text intact.
	for _, st := range []msg.Status{statusFor(errors.New("weird failure")), msg.Failed(200, "weird failure")} {
		if got := statusErr(st); got == nil || got.Error() != "weird failure" {
			t.Errorf("statusErr(code %d) = %v, want the opaque text", st.Code(), got)
		}
	}
}

// An LFS failure that wraps the storage node's corrupt-volume status is
// BOTH ErrLFSFailed and ErrCorrupt on the client — one code, chosen while the
// node's status is still a typed error — with the detail preserved. A failure
// that only mentions the corrupt text stays single-classed.
func TestStatusCorruptDualClass(t *testing.T) {
	// The shape lfsReadFinish produces for an unreplicated corrupt block.
	err := fmt.Errorf("%w: node 3 lfs file 9 local block 4 (global block 31): %w",
		ErrLFSFailed, fmt.Errorf("%w: checksum mismatch at block 118", ErrCorrupt))
	st := statusFor(err)
	if st.Code() != codeLFSCorrupt {
		t.Fatalf("statusFor(%v) = code %d, want the dual code %d", err, st.Code(), codeLFSCorrupt)
	}
	got := statusErr(st)
	if !errors.Is(got, ErrLFSFailed) || !errors.Is(got, ErrCorrupt) {
		t.Fatalf("statusErr = %v; want ErrLFSFailed and ErrCorrupt", got)
	}
	for _, detail := range []string{"node 3", "local block 4", "global block 31", "checksum mismatch at block 118"} {
		if !strings.Contains(got.Error(), detail) {
			t.Errorf("rebuilt error %q lost detail %q", got, detail)
		}
	}

	// A bare corrupt status (what Fsck passes up) is ErrCorrupt alone.
	bare := statusErr(statusFor(fmt.Errorf("%w: checksum mismatch in directory bucket at block 2", ErrCorrupt)))
	if !errors.Is(bare, ErrCorrupt) || errors.Is(bare, ErrLFSFailed) {
		t.Fatalf("bare corrupt = %v; want ErrCorrupt only", bare)
	}

	// Quoting the corrupt text is not being corrupt, for any class.
	for _, base := range []error{ErrLFSFailed, ErrNotFound} {
		quoted := statusErr(statusFor(fmt.Errorf("%w: upstream said %q", base, ErrCorrupt.Error())))
		if !errors.Is(quoted, base) || errors.Is(quoted, ErrCorrupt) {
			t.Fatalf("%v quoting the corrupt text = %v; want %v only", base, quoted, base)
		}
	}
}

// A deferred-write failure keeps its class through the replicated log, which
// holds it as text.
func TestStatusDeferredThroughLog(t *testing.T) {
	text := fmt.Errorf("%w: f: 3 acknowledged blocks rolled back (size now 5): %v", ErrDeferredWrite, ErrLFSFailed).Error()
	st := statusFor(deferredErr(text))
	if st.Code() != codeDeferredWrite || st.Detail() != text {
		t.Fatalf("statusFor(deferredErr) = code %d, %q", st.Code(), st.Detail())
	}
	if got := statusErr(st); !errors.Is(got, ErrDeferredWrite) || errors.Is(got, ErrLFSFailed) {
		t.Fatalf("statusErr = %v; want ErrDeferredWrite only", got)
	}
}
