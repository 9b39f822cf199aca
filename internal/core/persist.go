package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bfl"
	"repro/internal/dataset"
	"repro/internal/flatbuf"
	"repro/internal/georeach"
	"repro/internal/labeling"
)

// Engine persistence: SaveEngine (persistv2.go) serializes the expensive
// index state of an engine (interval labels, BFL filters or the
// SPA-Graph, and the R-tree over them) as a v2 flat image; LoadEngine
// reads it back over the same prepared network. The PLL variant is not
// persisted: its build is fast relative to loading its state.
//
// This file is the v1 side: the streaming format every Save wrote
// before the flat image. Nothing writes it any more — it is a one-way
// upgrade, load then save — but LoadEngine reads it forever,
// bulk-loading the spatial structures v1 never stored from the network.
//
// v1 format: magic "RRIX" | version u8 | method u8 | policy u8 | payload.
// The payload is the method's labeling.ReadLabeling, bfl.Read or
// georeach.Read stream (SocReach puts a reserved flags byte first). The
// Auto composite nests: its payload is a member count, the members' own
// tagged sections (each a complete header + payload, so the loader
// dispatches on the embedded method byte), and one float64 per member
// that once held a cost coefficient and is now read and ignored.

var engineMagic = [4]byte{'R', 'R', 'I', 'X'}

const engineVersion = 1

// ErrNotPersistable reports an engine type without a save format.
var ErrNotPersistable = fmt.Errorf("core: engine is not persistable")

// LoadEngine reads an engine written by SaveEngine — either format,
// sniffed from the magic — and attaches it to prep, which must describe
// the same network the engine was built over. The options supply the
// spatial-side knobs (fan-out, backend); the persisted reachability
// state is used as-is. v2 images decode into one aligned buffer and
// overlay typed columns on it; see OpenMappedEngine for the zero-copy
// path.
func LoadEngine(r io.Reader, prep *dataset.Prepared, opts BuildOptions) (BuildResult, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err == nil && bytes.Equal(head, flatbufMagic()) {
		img, err := flatbuf.ReadImage(br)
		if err != nil {
			return BuildResult{}, err
		}
		return loadEngineV2(img, prep, opts)
	}
	return loadEngineFrom(br, prep, opts)
}

func flatbufMagic() []byte { return flatbuf.Magic[:] }

// loadEngineFrom reads one tagged engine section from br. Composite
// sections recurse over the same reader, so nested members consume
// exactly their own bytes.
func loadEngineFrom(br *bufio.Reader, prep *dataset.Prepared, opts BuildOptions) (BuildResult, error) {
	var magic [4]byte
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return BuildResult{}, fmt.Errorf("core: reading magic: %w", err)
	}
	if magic != engineMagic {
		return BuildResult{}, fmt.Errorf("core: bad magic %q", magic)
	}
	var header [3]uint8
	if err := binary.Read(br, binary.LittleEndian, &header); err != nil {
		return BuildResult{}, fmt.Errorf("core: reading header: %w", err)
	}
	if header[0] != engineVersion {
		return BuildResult{}, fmt.Errorf("core: unsupported version %d", header[0])
	}
	m := Method(header[1])
	policy := dataset.SCCPolicy(header[2])

	checkSize := func(l *labeling.Labeling) error {
		if l.NumVertices() != prep.NumComponents() {
			return fmt.Errorf("core: labeling has %d vertices, network has %d components",
				l.NumVertices(), prep.NumComponents())
		}
		return nil
	}

	var e Engine
	switch m {
	case MethodThreeDReach:
		l, err := labeling.ReadLabeling(br)
		if err != nil {
			return BuildResult{}, err
		}
		if err := checkSize(l); err != nil {
			return BuildResult{}, err
		}
		// v1 stored no spatial index; the one rebuilt here and the
		// labels move to ranks, as a fresh build would key them.
		to := opts.ThreeD
		to.Policy = policy
		e = NewThreeDReachWithLabeling(prep, l.Ranked(prep.HasSpatial), to)
	case MethodThreeDReachRev:
		rev, err := labeling.ReadLabeling(br)
		if err != nil {
			return BuildResult{}, err
		}
		if err := checkSize(rev); err != nil {
			return BuildResult{}, err
		}
		to := opts.ThreeD
		to.Policy = policy
		e = NewThreeDReachRevWithLabeling(prep, rev, to)
	case MethodSocReach:
		// The flags byte is reserved: bit 0 once chose a descendant-scan
		// structure, which never changed an answer.
		var reserved uint8
		if err := binary.Read(br, binary.LittleEndian, &reserved); err != nil {
			return BuildResult{}, fmt.Errorf("core: reading flags: %w", err)
		}
		l, err := labeling.ReadLabeling(br)
		if err != nil {
			return BuildResult{}, err
		}
		if err := checkSize(l); err != nil {
			return BuildResult{}, err
		}
		e = NewSocReachWithLabeling(prep, l)
	case MethodSpaReachINT:
		l, err := labeling.ReadLabeling(br)
		if err != nil {
			return BuildResult{}, err
		}
		if err := checkSize(l); err != nil {
			return BuildResult{}, err
		}
		so := opts.SpaReach
		so.Policy = policy
		e = newSpaReach("SpaReach-INT", prep, l, so)
	case MethodSpaReachBFL:
		idx, err := bfl.Read(prep.DAG, br)
		if err != nil {
			return BuildResult{}, err
		}
		so := opts.SpaReach
		so.Policy = policy
		e = newSpaReach("SpaReach-BFL", prep, idx, so)
	case MethodGeoReach:
		idx, err := georeach.Read(prep, br)
		if err != nil {
			return BuildResult{}, err
		}
		e = &GeoReach{idx: idx}
	case MethodAuto:
		auto, err := loadAuto(br, prep, opts, policy)
		if err != nil {
			return BuildResult{}, err
		}
		e = auto
	default:
		return BuildResult{}, fmt.Errorf("core: method %v is not persistable", m)
	}
	return BuildResult{
		Engine: e,
		Method: m,
		Policy: policy,
		Bytes:  e.MemoryBytes(),
	}, nil
}

// loadAuto reads the composite payload: the member sections, then the
// ignored per-member coefficients.
func loadAuto(br *bufio.Reader, prep *dataset.Prepared, opts BuildOptions, policy dataset.SCCPolicy) (*Auto, error) {
	var n uint8
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("core: reading auto member count: %w", err)
	}
	if n == 0 || int(n) > maxAutoMembers {
		return nil, fmt.Errorf("core: auto member count %d out of range [1,%d]", n, maxAutoMembers)
	}
	methods := make([]Method, n)
	engines := make([]Engine, n)
	for i := range engines {
		res, err := loadEngineFrom(br, prep, opts)
		if err != nil {
			return nil, fmt.Errorf("core: auto member %d: %w", i, err)
		}
		if res.Method == MethodAuto {
			return nil, fmt.Errorf("core: auto member %d is itself an auto composite", i)
		}
		methods[i] = res.Method
		engines[i] = res.Engine
	}
	if _, err := br.Discard(8 * int(n)); err != nil {
		return nil, fmt.Errorf("core: reading auto coefficients: %w", err)
	}
	return newAuto(policy, methods, engines), nil
}
