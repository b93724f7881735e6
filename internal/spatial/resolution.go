package spatial

import "fmt"

// Resolution is a spatial resolution. GPS is raw point data; the others
// partition space into polygons of decreasing granularity.
type Resolution int

const (
	// GPS denotes raw point coordinates (finest; data-only, relationships
	// are never evaluated at GPS resolution).
	GPS Resolution = iota
	// ZipCode partitions the city into zip-code sized regions.
	ZipCode
	// Neighborhood partitions the city into neighborhoods.
	Neighborhood
	// City is the whole city as a single region (coarsest).
	City
)

// String implements fmt.Stringer.
func (r Resolution) String() string {
	switch r {
	case GPS:
		return "gps"
	case ZipCode:
		return "zip"
	case Neighborhood:
		return "neighborhood"
	case City:
		return "city"
	default:
		return fmt.Sprintf("spatial.Resolution(%d)", int(r))
	}
}

// Valid reports whether r is a defined resolution.
func (r Resolution) Valid() bool { return r >= GPS && r <= City }

// ParseResolution converts a string name into a Resolution.
func ParseResolution(s string) (Resolution, error) {
	switch s {
	case "gps":
		return GPS, nil
	case "zip":
		return ZipCode, nil
	case "neighborhood":
		return Neighborhood, nil
	case "city":
		return City, nil
	}
	return 0, fmt.Errorf("spatial: unknown resolution %q", s)
}

// ConvertibleTo reports whether data at resolution r can be aggregated into
// resolution target, following the spatial DAG of Figure 6: GPS converts to
// everything; zip code and neighborhood are mutually incompatible and both
// convert only to city.
func (r Resolution) ConvertibleTo(target Resolution) bool {
	if r == target {
		return true
	}
	switch r {
	case GPS:
		return target.Valid()
	case ZipCode, Neighborhood:
		return target == City
	case City:
		return false
	}
	return false
}
