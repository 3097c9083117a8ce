// Package city generates the urban geometry for the Section 5 dispersion
// simulation. The paper uses a detailed polygonal model of the Times
// Square area of New York City: about 1.66 km x 1.13 km, 91 blocks,
// roughly 850 buildings, rasterized onto a 480x400x80 lattice at 3.8 m
// spacing (the model occupies 440x300 lattice cells on the ground).
//
// That proprietary mesh is not available, so this package synthesizes a
// statistically similar Manhattan-style district from a fixed seed: a
// 13x7 grid of blocks (91) separated by avenues and streets, each block
// subdivided into lots carrying buildings with a heavy-tailed height
// distribution (a few towers, many mid-rises). The geometry enters the
// solver exactly as the paper's does — as solid flags on lattice cells —
// so the boundary-evaluation code paths and costs are equivalent.
package city

import (
	"math"
	"math/rand"
)

// Building is an axis-aligned box footprint in meters.
type Building struct {
	X0, Y0, X1, Y1 float64 // footprint (m)
	Height         float64 // roof height (m)
}

// City is a generated district.
type City struct {
	// WidthM, DepthM are the district extents in meters.
	WidthM, DepthM float64
	// Blocks counts the street blocks.
	Blocks int
	// Buildings lists every generated building.
	Buildings []Building
}

// Config parameterizes generation; zero values take the paper-matched
// defaults.
type Config struct {
	// WidthM x DepthM is the district size (default 1660 x 1130 m).
	WidthM, DepthM float64
	// BlocksX x BlocksY is the block grid (default 13 x 7 = 91 blocks).
	BlocksX, BlocksY int
	// AvenueM and StreetM are the road widths separating blocks
	// (default 30 m avenues along x, 18 m streets along y).
	AvenueM, StreetM float64
	// Seed fixes the generator (default 2004).
	Seed int64
	// MeanHeightM is the typical building height (default 45 m);
	// towers reach several times this.
	MeanHeightM float64
}

func (c *Config) defaults() {
	if c.WidthM == 0 {
		c.WidthM = 1660
	}
	if c.DepthM == 0 {
		c.DepthM = 1130
	}
	if c.BlocksX == 0 {
		c.BlocksX = 13
	}
	if c.BlocksY == 0 {
		c.BlocksY = 7
	}
	if c.AvenueM == 0 {
		c.AvenueM = 30
	}
	if c.StreetM == 0 {
		c.StreetM = 18
	}
	if c.Seed == 0 {
		c.Seed = 2004
	}
	if c.MeanHeightM == 0 {
		c.MeanHeightM = 45
	}
}

// Generate builds the synthetic district deterministically from the
// config seed.
func Generate(cfg Config) *City {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &City{
		WidthM: cfg.WidthM,
		DepthM: cfg.DepthM,
		Blocks: cfg.BlocksX * cfg.BlocksY,
	}
	blockW := (cfg.WidthM - float64(cfg.BlocksX+1)*cfg.AvenueM) / float64(cfg.BlocksX)
	blockD := (cfg.DepthM - float64(cfg.BlocksY+1)*cfg.StreetM) / float64(cfg.BlocksY)

	for by := 0; by < cfg.BlocksY; by++ {
		for bx := 0; bx < cfg.BlocksX; bx++ {
			x0 := cfg.AvenueM + float64(bx)*(blockW+cfg.AvenueM)
			y0 := cfg.StreetM + float64(by)*(blockD+cfg.StreetM)
			c.fillBlock(rng, x0, y0, blockW, blockD, cfg.MeanHeightM)
		}
	}
	return c
}

// fillBlock subdivides one block into lots along its long axis, two rows
// deep, and erects a building on most lots (~9-10 per block on average).
func (c *City) fillBlock(rng *rand.Rand, x0, y0, w, d, meanH float64) {
	lots := 5
	rows := 2
	lotW := w / float64(lots)
	lotD := d / float64(rows)
	for r := 0; r < rows; r++ {
		for l := 0; l < lots; l++ {
			if rng.Float64() < 0.065 { // vacant lot / plaza
				continue
			}
			// Setback: buildings do not fill the whole lot.
			inset := 0.04 + 0.08*rng.Float64()
			bx0 := x0 + float64(l)*lotW + inset*lotW
			by0 := y0 + float64(r)*lotD + inset*lotD
			bx1 := x0 + float64(l+1)*lotW - inset*lotW
			by1 := y0 + float64(r+1)*lotD - inset*lotD
			// Heavy-tailed height: lognormal body plus occasional tower.
			h := meanH * math.Exp(0.5*rng.NormFloat64())
			if rng.Float64() < 0.04 {
				h *= 2.5 + 2*rng.Float64() // Times Square towers
			}
			if h < 10 {
				h = 10
			}
			if h > 280 {
				h = 280
			}
			c.Buildings = append(c.Buildings, Building{bx0, by0, bx1, by1, h})
		}
	}
}

// MaxHeight returns the tallest building height in meters.
func (c *City) MaxHeight() float64 {
	var m float64
	for _, b := range c.Buildings {
		if b.Height > m {
			m = b.Height
		}
	}
	return m
}

// Voxelization maps the city onto a lattice.
type Voxelization struct {
	NX, NY, NZ int
	// SpacingM is the lattice spacing in meters (the paper's 3.8 m).
	SpacingM float64
	// OffsetX, OffsetY center the city footprint in the lattice (cells).
	OffsetX, OffsetY int
	solid            []bool
}

// Voxelize rasterizes the city onto an nx x ny x nz lattice with the
// given spacing, centered in x/y. A cell is solid when its center lies
// inside a building footprint below the roof height.
func (c *City) Voxelize(nx, ny, nz int, spacingM float64) *Voxelization {
	v := &Voxelization{
		NX: nx, NY: ny, NZ: nz,
		SpacingM: spacingM,
		solid:    make([]bool, nx*ny*nz),
	}
	cityCellsX := int(c.WidthM / spacingM)
	cityCellsY := int(c.DepthM / spacingM)
	v.OffsetX = (nx - cityCellsX) / 2
	if v.OffsetX < 0 {
		v.OffsetX = 0
	}
	v.OffsetY = (ny - cityCellsY) / 2
	if v.OffsetY < 0 {
		v.OffsetY = 0
	}
	for _, b := range c.Buildings {
		zx0 := v.OffsetX + int(b.X0/spacingM+0.5)
		zx1 := v.OffsetX + int(b.X1/spacingM+0.5)
		zy0 := v.OffsetY + int(b.Y0/spacingM+0.5)
		zy1 := v.OffsetY + int(b.Y1/spacingM+0.5)
		zh := int(b.Height/spacingM + 0.5)
		if zh > nz {
			zh = nz
		}
		for y := max(zy0, 0); y < min(zy1, ny); y++ {
			for x := max(zx0, 0); x < min(zx1, nx); x++ {
				for z := 0; z < zh; z++ {
					v.solid[(z*ny+y)*nx+x] = true
				}
			}
		}
	}
	return v
}

// IsSolid reports whether lattice cell (x, y, z) is inside a building.
// Out-of-range coordinates are fluid.
func (v *Voxelization) IsSolid(x, y, z int) bool {
	if x < 0 || x >= v.NX || y < 0 || y >= v.NY || z < 0 || z >= v.NZ {
		return false
	}
	return v.solid[(z*v.NY+y)*v.NX+x]
}

// Geometry returns the solid predicate in the form the cluster expects.
func (v *Voxelization) Geometry() func(x, y, z int) bool {
	return v.IsSolid
}

// SolidFraction returns the fraction of lattice cells that are solid.
func (v *Voxelization) SolidFraction() float64 {
	n := 0
	for _, s := range v.solid {
		if s {
			n++
		}
	}
	return float64(n) / float64(len(v.solid))
}

// FootprintFraction returns the fraction of ground-level cells covered
// by buildings.
func (v *Voxelization) FootprintFraction() float64 {
	n := 0
	for y := 0; y < v.NY; y++ {
		for x := 0; x < v.NX; x++ {
			if v.solid[y*v.NX+x] {
				n++
			}
		}
	}
	return float64(n) / float64(v.NX*v.NY)
}
