package rangereach

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Method selects a RangeReach evaluation method.
type Method int

// The available methods, named as in the paper. Each has one row in
// methodTable, which is the only other place a method is spelled out.
const (
	// ThreeDReach is the paper's primary contribution: spatial vertices
	// become (x, y, post) points and a query becomes one 3D range query
	// over the whole reachability label. The points live in tiles (STR
	// cells in the plane, each sorted by post), so the query is one walk
	// that joins each cell's posts with the label. The fastest method
	// overall.
	ThreeDReach Method = iota
	// ThreeDReachRev is the line-based variant: reversed labels turn
	// spatial vertices into vertical segments and a query into a single
	// plane-shaped 3D range query.
	ThreeDReachRev
	// SocReach is the social-first method: enumerate descendants from
	// the interval labels, then test their points.
	SocReach
	// SpaReachBFL is the strongest spatial-first baseline: 2D R-tree
	// range query plus BFL reachability probes.
	SpaReachBFL
	// SpaReachINT is the spatial-first baseline with interval-label
	// probes.
	SpaReachINT
	// GeoReach is the prior state of the art (Sarwat and Sun's
	// SPA-Graph).
	GeoReach
	// Naive answers queries by plain BFS with no index; useful as a
	// correctness oracle and for tiny networks.
	Naive
	// SpaReachPLL is the spatial-first baseline with 2-hop (pruned
	// landmark labeling) reachability probes — the first SpaReach
	// variant of Sarwat and Sun's original paper.
	SpaReachPLL
	// MethodAuto is the planner's method: it builds one ThreeDReach,
	// which answers every query, and names it as the plan of every
	// explained one (QueryStats.Plan, Index.PlannerMembers).
	MethodAuto
)

// Methods lists the indexed methods of the paper's evaluation
// (excluding Naive and the extended SpaReach variant).
var Methods = []Method{ThreeDReach, ThreeDReachRev, SocReach, SpaReachBFL, SpaReachINT, GeoReach}

// ExtendedMethods lists the additional SpaReach reachability backend:
// PLL, the 2-hop variant of the original GeoReach paper.
var ExtendedMethods = []Method{SpaReachPLL}

// noCore marks the one method without an internal engine id: Naive is
// built here, not by core.BuildMethod, and is never the method of a
// saved index.
const noCore core.Method = -1

// methodTable holds what the package knows about each method: the
// internal engine id, the display name (the paper's, and the built
// engine's Name), the name ParseMethod accepts, and whether Index.Save
// has a format for it. String, ParseMethod, MethodNames, Persistable
// and the conversions to and from core.Method all read it.
var methodTable = [...]struct {
	core        core.Method
	name        string
	flag        string
	persistable bool
}{
	ThreeDReach:    {core.MethodThreeDReach, "3DReach", "3dreach", true},
	ThreeDReachRev: {core.MethodThreeDReachRev, "3DReach-Rev", "3dreach-rev", false},
	SocReach:       {core.MethodSocReach, "SocReach", "socreach", false},
	SpaReachBFL:    {core.MethodSpaReachBFL, "SpaReach-BFL", "spareach-bfl", false},
	SpaReachINT:    {core.MethodSpaReachINT, "SpaReach-INT", "spareach-int", false},
	GeoReach:       {core.MethodGeoReach, "GeoReach", "georeach", true},
	Naive:          {noCore, "NaiveBFS", "naive", false},
	SpaReachPLL:    {core.MethodSpaReachPLL, "SpaReach-PLL", "spareach-pll", false},
	MethodAuto:     {core.MethodAuto, "Auto", "auto", false},
}

func (m Method) known() bool { return m >= 0 && int(m) < len(methodTable) }

// String implements fmt.Stringer.
func (m Method) String() string {
	if !m.known() {
		return fmt.Sprintf("Method(%d)", int(m))
	}
	return methodTable[m].name
}

// Persistable reports whether an index of this method can be saved
// (Index.Save returns ErrNotPersistable otherwise): true for
// ThreeDReach and GeoReach alone. The other methods are rebuilt from
// the network, and their saved records are refused as retired.
func (m Method) Persistable() bool { return m.known() && methodTable[m].persistable }

// ParseMethod resolves a method name as the command-line tools spell it
// (see MethodNames), ignoring case.
func ParseMethod(name string) (Method, bool) {
	for m, row := range methodTable {
		if strings.EqualFold(name, row.flag) {
			return Method(m), true
		}
	}
	return 0, false
}

// MethodNames lists the names ParseMethod accepts, one per method.
func MethodNames() []string {
	names := make([]string, len(methodTable))
	for m, row := range methodTable {
		names[m] = row.flag
	}
	return names
}

func (m Method) internal() (core.Method, bool) {
	if !m.known() || methodTable[m].core == noCore {
		return 0, false
	}
	return methodTable[m].core, true
}

// methodFromCore maps the method id of a loaded index back to the public
// one. An id without a row is an error, not a default: an index must
// never report a method it does not hold.
func methodFromCore(cm core.Method) (Method, error) {
	for m, row := range methodTable {
		if row.core == cm && cm != noCore {
			return Method(m), nil
		}
	}
	return 0, fmt.Errorf("rangereach: index names method %d, which this package does not know", int(cm))
}
