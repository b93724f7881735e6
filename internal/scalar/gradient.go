package scalar

import "math"

// Gradient derives a new scalar function whose value at each vertex is the
// discrete gradient magnitude of f over the spatio-temporal domain graph:
// the root-mean-square of the value differences to the vertex's neighbors.
//
// This implements the extension sketched in Section 8 of the paper: a
// single-threshold feature search on f misses unusual patterns such as a
// sudden increase of taxi trips in a relatively calm area, because the
// absolute density never crosses the salient threshold. High values of
// |grad f| mark exactly those sudden spatio-temporal changes, so running
// the standard feature pipeline on the gradient function surfaces them.
func Gradient(f *Function) *Function {
	g := f.Graph
	out := *f
	out.Derived = "grad"
	out.Values = newValues(len(f.Values))
	for v := range f.Values {
		sum := 0.0
		deg := 0
		g.Neighbors(v, func(u int) {
			d := f.Values[u] - f.Values[v]
			sum += d * d
			deg++
		})
		if deg > 0 {
			out.Values[v] = math.Sqrt(sum / float64(deg))
		}
	}
	return &out
}
