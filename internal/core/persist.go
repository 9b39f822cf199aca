package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/bfl"
	"repro/internal/dataset"
	"repro/internal/flatbuf"
	"repro/internal/georeach"
	"repro/internal/labeling"
)

// Engine persistence: SaveEngine serializes the expensive index state of
// an engine (interval labels, BFL filters or the SPA-Graph); LoadEngine
// rebuilds the full engine over the same prepared network, bulk-loading
// the spatial structures from the network — which is cheap compared to
// labeling construction. The PLL variant is not persisted: its build is
// fast relative to loading its state.
//
// Format: magic "RRIX" | version u8 | method u8 | policy u8 | payload.
// The Auto composite nests: its payload is a member count, the members'
// own tagged sections (each a complete header + payload, so the loader
// dispatches on the embedded method byte), and the planner's learned
// cost coefficients.

var engineMagic = [4]byte{'R', 'R', 'I', 'X'}

const engineVersion = 1

// ErrNotPersistable reports an engine type without a save format.
var ErrNotPersistable = fmt.Errorf("core: engine is not persistable")

// SaveEngine writes e to w in the current (v2 flat) format. Supported:
// ThreeDReach, ThreeDReachRev, SocReach, SpaReach-BFL, SpaReach-INT,
// GeoReach and Auto composites of those; others return
// ErrNotPersistable. On a big-endian host — which cannot emit the
// little-endian flat image — it falls back to the v1 stream, which both
// loaders accept everywhere.
func SaveEngine(w io.Writer, e Engine) error {
	if !flatbuf.LittleEndian() {
		return SaveEngineV1(w, e)
	}
	return saveEngineV2(w, e)
}

// SaveEngineV1 writes e in the legacy streaming format, kept for
// compatibility fixtures and big-endian hosts. LoadEngine reads both.
func SaveEngineV1(w io.Writer, e Engine) error {
	bw := bufio.NewWriter(w)
	if err := saveEngineTo(bw, e); err != nil {
		return err
	}
	return bw.Flush()
}

// saveEngineTo appends e's tagged section to bw. Composite engines
// recurse, writing each member as a complete nested section.
func saveEngineTo(bw *bufio.Writer, e Engine) error {
	writeHeader := func(m Method, policy dataset.SCCPolicy) error {
		if err := binary.Write(bw, binary.LittleEndian, engineMagic); err != nil {
			return err
		}
		return binary.Write(bw, binary.LittleEndian,
			[3]uint8{engineVersion, uint8(m), uint8(policy)})
	}

	var err error
	switch eng := e.(type) {
	case *ThreeDReach:
		if err = writeHeader(MethodThreeDReach, eng.policy); err == nil {
			_, err = eng.l.WriteTo(bw)
		}
	case *ThreeDReachRev:
		if err = writeHeader(MethodThreeDReachRev, eng.policy); err == nil {
			_, err = eng.rev.WriteTo(bw)
		}
	case *SocReach:
		if err = writeHeader(MethodSocReach, dataset.Replicate); err == nil {
			// The flags byte is reserved: bit 0 once chose a descendant-scan
			// structure, which never changed an answer. Written as zero.
			if err = binary.Write(bw, binary.LittleEndian, uint8(0)); err == nil {
				_, err = eng.l.WriteTo(bw)
			}
		}
	case *GeoReach:
		if err = writeHeader(MethodGeoReach, dataset.Replicate); err == nil {
			_, err = eng.idx.WriteTo(bw)
		}
	case *SpaReach:
		switch reach := eng.reach.(type) {
		case *labeling.Labeling:
			if err = writeHeader(MethodSpaReachINT, eng.policy); err == nil {
				_, err = reach.WriteTo(bw)
			}
		case *bfl.Index:
			if err = writeHeader(MethodSpaReachBFL, eng.policy); err == nil {
				_, err = reach.WriteTo(bw)
			}
		default:
			return fmt.Errorf("%w: SpaReach backend %T", ErrNotPersistable, reach)
		}
	case *Auto:
		if err = writeHeader(MethodAuto, eng.policy); err != nil {
			break
		}
		if err = binary.Write(bw, binary.LittleEndian, uint8(len(eng.members))); err != nil {
			break
		}
		for i, member := range eng.members {
			if err = saveEngineTo(bw, member); err != nil {
				return fmt.Errorf("auto member %v: %w", eng.methods[i], err)
			}
		}
		for i := range eng.members {
			if err = binary.Write(bw, binary.LittleEndian,
				math.Float64bits(eng.pl.Model().Coef(i))); err != nil {
				break
			}
		}
	default:
		return fmt.Errorf("%w: %T", ErrNotPersistable, e)
	}
	if err != nil {
		return fmt.Errorf("core: saving engine: %w", err)
	}
	return nil
}

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
		to := opts.ThreeD
		to.Policy = policy
		e = NewThreeDReachWithLabeling(prep, l, to)
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
		var reserved uint8 // the flags byte; see saveEngineTo
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
// learned cost coefficients. Calibration is skipped — the persisted
// coefficients carry what the previous process learned.
func loadAuto(br *bufio.Reader, prep *dataset.Prepared, opts BuildOptions, policy dataset.SCCPolicy) (*Auto, error) {
	var n uint8
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("core: reading auto member count: %w", err)
	}
	if n == 0 || int(n) > maxAutoMembers() {
		return nil, fmt.Errorf("core: auto member count %d out of range [1,%d]", n, maxAutoMembers())
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
	coefs := make([]float64, n)
	for i := range coefs {
		var bits uint64
		if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("core: reading auto coefficients: %w", err)
		}
		coefs[i] = math.Float64frombits(bits)
	}

	a := assembleAuto(prep, policy, methods, engines, opts.Auto, harvestForward(prep, opts, engines))
	for i, c := range coefs {
		a.pl.Model().SetCoef(i, c)
	}
	return a, nil
}

// harvestForward recovers a forward labeling of prep.DAG for the
// planner's estimator from one of the loaded members, falling back to a
// fresh build when no member carries one. ThreeDReachRev is excluded:
// its labeling is over the reversed DAG.
func harvestForward(prep *dataset.Prepared, opts BuildOptions, engines []Engine) *labeling.Labeling {
	for _, e := range engines {
		switch eng := e.(type) {
		case *SocReach:
			return eng.l
		case *ThreeDReach:
			return eng.l
		case *SpaReach:
			if l, ok := eng.reach.(*labeling.Labeling); ok {
				return l
			}
		}
	}
	return labeling.Build(prep.DAG, labeling.Options{Forest: opts.SocReach.Forest})
}
