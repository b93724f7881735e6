// Package spatial models the spatial side of the Data Polygamy framework:
// points, spatial resolutions (GPS, zip code, neighborhood, city), and an
// irregular synthetic city that partitions space into regions with an
// adjacency structure, standing in for NYC's shapefiles (see DESIGN.md,
// Substitutions).
package spatial

import "math"

// Point is a location in the plane. For urban data, X/Y play the role of
// projected longitude/latitude.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}
