package lfs

import (
	"testing"

	"bridge/internal/msg/wire"
	"bridge/internal/msg/wire/wiretest"
)

// Every body of the LFS server's and node agent's protocols round-trips
// through the codec, as its zero value and as a filled sample. The codec
// spans both tables: a TreeReq carries a server request as its Op.
func TestCodecRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wire.NewCodec(Bodies())) }

func FuzzLFSBodies(f *testing.F) { wiretest.Fuzz(f, wire.NewCodec(Bodies())) }
