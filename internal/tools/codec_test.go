package tools

import (
	"testing"

	"bridge/internal/msg/wire"
	"bridge/internal/msg/wire/wiretest"
)

// Every body of the Figure 4 merge's protocol round-trips through the codec, as its zero value and
// as a filled sample.
func TestCodecRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wire.NewCodec(mergeProtocol.Bodies())) }

func FuzzMergeBodies(f *testing.F) { wiretest.Fuzz(f, wire.NewCodec(mergeProtocol.Bodies())) }
