// Package trace holds the PLTR binary format (Writer, Reader), capture
// of a run's issued instruction stream (Capture), and replay of a trace
// as a gpusim workload (Replay, a set of per-warp cursors over a
// Reader). Traces make experiments exactly repeatable across machines
// and let the simulator be driven by captured production-scale streams
// (the workload registry's scenario corpus is the intended source)
// instead of the synthetic suite.
//
// # Format (PLTR version 2)
//
// All integers are little-endian. The file is a sequence of CRC-guarded
// chunks in the checkpoint-codec discipline, streamable in both
// directions: the writer never buffers more than one pending chunk per
// warp, and the reader never decodes more than one chunk per warp.
//
//	magic    [4]byte  "PLTR"
//	version  u16      = 2
//	header:
//	    payloadLen u32
//	    payload              warps, value model, chunk target
//	    payloadCRC u32       CRC32 (IEEE) of payload
//	chunk × N, each owned by one warp:
//	    tag        u8  = 0x01
//	    warp       u32
//	    firstIndex u64       per-warp index of the chunk's first record
//	    count      u32
//	    payloadLen u32
//	    payload              count records (see below)
//	    payloadCRC u32
//	footer:
//	    tag        u8  = 0x02
//	    payloadLen u32
//	    payload              total records, warps, per-warp chunk index
//	    payloadCRC u32
//	trailer  [8]byte  "PLTR-END"
//	footerOff u64             file offset of the footer tag
//	trailerCRC u32            CRC32 (IEEE) of the previous 16 bytes
//
// A record is: u8 kind (0 compute, 1 load, 2 store), u16 cycles
// (compute) or address count (load/store), then that many u64
// addresses. Records of one warp appear in issue order; the relative
// order of different warps' chunks is not part of the format (replay
// timing is decided by the simulator, exactly as for synthetic
// workloads). The header and footer payloads are checkpoint.Codec walks
// (Header.Codec, footer.walk); records keep a hand-written encoding
// because chunks stream one record at a time.
//
// The trailer magic distinguishes truncation (writer died; trailer
// absent → checkpoint.ErrTruncated) from corruption (trailer present
// but a CRC or structural check fails → checkpoint.ErrCorrupt); intact
// files of another version (for example v1 traces from before the
// streaming format) are rejected with checkpoint.ErrVersion. The value
// model embedded in the header is the capture source's
// valmodel.Model, so replayed memory images and store streams match
// the original run bit for bit.
package trace

import (
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
)

// Record is one traced warp instruction.
type Record struct {
	Warp   uint32
	Kind   gpusim.InstKind
	Cycles uint16
	Addrs  []geom.Addr
}

// RecordOf converts one issued instruction into its trace record,
// clamping compute latencies into the format's u16 field the same way
// the simulator clamps them at execute time (min 1).
func RecordOf(warp int, inst gpusim.Inst) Record {
	rec := Record{Warp: uint32(warp), Kind: inst.Kind}
	if inst.Kind == gpusim.Compute {
		c := inst.Cycles
		if c < 1 {
			c = 1
		}
		if c > 0xffff {
			c = 0xffff
		}
		rec.Cycles = uint16(c)
	} else {
		rec.Addrs = append([]geom.Addr(nil), inst.Addrs...)
	}
	return rec
}

// Inst converts a record back into the instruction the simulator
// replays.
func (r Record) Inst() gpusim.Inst {
	if r.Kind == gpusim.Compute {
		return gpusim.Inst{Kind: gpusim.Compute, Cycles: int(r.Cycles)}
	}
	return gpusim.Inst{Kind: r.Kind, Addrs: r.Addrs}
}
