package traceimport

import (
	"bytes"

	"skybyte/internal/trace"
	"skybyte/internal/workloads"
)

// RegisterWorkload imports an external trace and registers it as a
// replayable workload named "trace:<format>:<source>", resolvable by
// name everywhere a built-in is — so an imported trace joins campaigns
// exactly like a recorded one. The spec's source identity is the
// digest of the canonical encoding of the converted records (which
// covers the Origin meta, and through it the source file's sha256), so
// runner spec keys re-cold exactly the design points replaying this
// import when the source file or any importer behaviour changes.
//
// The conversion streams straight into the encoded container and the
// registered workload replays it through the block-at-a-time Reader,
// so neither import nor replay ever materializes the record slice;
// peak memory tracks the compressed trace size. To keep a large
// import across runs, write it to a .trc with the skybyte-trace CLI
// (-import ... -record out.trc) and load the file instead.
func RegisterWorkload(format, path string) (workloads.Spec, error) {
	enc, err := ImportEncoded(format, path)
	if err != nil {
		return workloads.Spec{}, err
	}
	src, err := trace.NewReader(bytes.NewReader(enc.Data), int64(len(enc.Data)))
	if err != nil {
		return workloads.Spec{}, err
	}
	spec, err := workloads.SpecFromTrace(src)
	if err != nil {
		return workloads.Spec{}, err
	}
	if err := workloads.Register(spec); err != nil {
		return workloads.Spec{}, err
	}
	return spec, nil
}
