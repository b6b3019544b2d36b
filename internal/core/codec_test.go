package core

import (
	"testing"

	"bridge/internal/msg/wire"
	"bridge/internal/msg/wire/wiretest"
)

// Every body of the Bridge Server's protocol, with the job one-ways round-trips through the codec, as its zero value and
// as a filled sample.
func TestCodecRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wire.NewCodec(Bodies())) }

func FuzzBridgeBodies(f *testing.F) { wiretest.Fuzz(f, wire.NewCodec(Bodies())) }
