// Package vecmath provides the small fixed-size float32 vector and matrix
// types used throughout the GPU simulator and the LBM solvers.
//
// Vec4 models the 4-wide SIMD register of a 2003-era fragment processor
// (one RGBA texel / one homogeneous coordinate); Vec3 is the spatial
// vector used by the flow solvers. All operations are value-based and
// allocation-free so they can run in inner loops.
package vecmath

import "math"

// Vec4 is a 4-component float32 vector, the native register width of the
// simulated GPU fragment processor (RGBA color channels).
type Vec4 [4]float32

// Vec3 is a 3-component float32 spatial vector.
type Vec3 [3]float32

// Add returns v + w componentwise.
func (v Vec4) Add(w Vec4) Vec4 {
	return Vec4{v[0] + w[0], v[1] + w[1], v[2] + w[2], v[3] + w[3]}
}

// Sub returns v - w componentwise.
func (v Vec4) Sub(w Vec4) Vec4 {
	return Vec4{v[0] - w[0], v[1] - w[1], v[2] - w[2], v[3] - w[3]}
}

// Mul returns the componentwise (Hadamard) product v * w.
func (v Vec4) Mul(w Vec4) Vec4 {
	return Vec4{v[0] * w[0], v[1] * w[1], v[2] * w[2], v[3] * w[3]}
}

// Scale returns s*v.
func (v Vec4) Scale(s float32) Vec4 {
	return Vec4{v[0] * s, v[1] * s, v[2] * s, v[3] * s}
}

// Dot returns the 4-component dot product.
func (v Vec4) Dot(w Vec4) float32 {
	return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] + v[3]*w[3]
}

// MulAdd returns v + s*w, the fused multiply-add idiom of fragment programs.
func (v Vec4) MulAdd(s float32, w Vec4) Vec4 {
	return Vec4{v[0] + s*w[0], v[1] + s*w[1], v[2] + s*w[2], v[3] + s*w[3]}
}

// Sum returns the horizontal sum of the components.
func (v Vec4) Sum() float32 { return v[0] + v[1] + v[2] + v[3] }

// Add returns v + w componentwise.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Scale returns s*v.
func (v Vec3) Scale(s float32) Vec3 { return Vec3{v[0] * s, v[1] * s, v[2] * s} }

// Dot returns the dot product.
func (v Vec3) Dot(w Vec3) float32 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float32 {
	return float32(math.Sqrt(float64(v.Dot(v))))
}

// Normalize returns v scaled to unit length; the zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Cross returns the cross product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v[1]*w[2] - v[2]*w[1],
		v[2]*w[0] - v[0]*w[2],
		v[0]*w[1] - v[1]*w[0],
	}
}

// Lerp returns (1-t)*v + t*w.
func (v Vec3) Lerp(w Vec3, t float32) Vec3 {
	return Vec3{
		v[0] + t*(w[0]-v[0]),
		v[1] + t*(w[1]-v[1]),
		v[2] + t*(w[2]-v[2]),
	}
}

// Clamp returns v with each component clamped to [lo, hi].
func Clamp(x, lo, hi float32) float32 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
