package data

import (
	"shredder/internal/tensor"
)

// Generator produces a dataset of n labelled samples deterministically from
// a seed. The four implementations stand in for the paper's four benchmark
// datasets (see the package comment and DESIGN.md §2 for the substitution
// rationale).
type Generator interface {
	// Name identifies the dataset family ("digits", "objects", ...).
	Name() string
	// Classes returns the number of label classes.
	Classes() int
	// SampleShape returns the per-sample [C,H,W] shape.
	SampleShape() []int
	// Render draws one sample of class label over img, a [C,H,W] tensor,
	// writing every pixel and taking all of its randomness from rng.
	Render(img *tensor.Tensor, label int, rng *tensor.RNG)
	// Generate produces n samples with balanced random labels: the recipe
	// NewRecipe(g, n, seed), materialised.
	Generate(n int, seed int64) *Dataset
}

// Digits is the MNIST substitute: 28×28 grayscale digit glyphs with random
// position, scale, shear, stroke intensity and sensor noise.
type Digits struct{}

// Name implements Generator.
func (Digits) Name() string { return "digits" }

// Classes implements Generator.
func (Digits) Classes() int { return 10 }

// SampleShape implements Generator.
func (Digits) SampleShape() []int { return []int{1, 28, 28} }

// Generate implements Generator.
func (d Digits) Generate(n int, seed int64) *Dataset { return NewRecipe(d, n, seed).Materialize() }

// Render implements Generator.
func (Digits) Render(img *tensor.Tensor, label int, rng *tensor.RNG) {
	cv := newCanvas(img)
	// Dark background with slight level variation.
	bg := 0.05 + 0.1*rng.Float64()
	img.Fill(bg)
	scale := 2.6 + 1.0*rng.Float64() // glyph cell size
	gw, gh := 5*scale, 7*scale
	x0 := rng.Uniform(1, 27-gw)
	y0 := rng.Uniform(1, 27-gh)
	shear := rng.Uniform(-0.35, 0.35)
	ink := []float64{0.7 + 0.3*rng.Float64()}
	cv.drawGlyph(label, x0, y0, scale, shear, ink, 1)
	cv.sensorNoise(rng, 0.04)
}

// Objects is the CIFAR-10 substitute: 32×32 RGB images of ten shape classes
// on textured backgrounds.
type Objects struct{}

// Name implements Generator.
func (Objects) Name() string { return "objects" }

// Classes implements Generator.
func (Objects) Classes() int { return 10 }

// SampleShape implements Generator.
func (Objects) SampleShape() []int { return []int{3, 32, 32} }

// Generate implements Generator.
func (o Objects) Generate(n int, seed int64) *Dataset { return NewRecipe(o, n, seed).Materialize() }

// Render implements Generator.
func (Objects) Render(img *tensor.Tensor, label int, rng *tensor.RNG) {
	cv := newCanvas(img)
	cv.valueNoise(rng, 8, 0.45, 0.25)
	col := randColor(rng, 3)
	cx := rng.Uniform(12, 20)
	cy := rng.Uniform(12, 20)
	r := rng.Uniform(7, 11)
	switch label {
	case 0:
		cv.fillCircle(cx, cy, r, col)
	case 1:
		cv.fillRect(cx-r*0.8, cy-r*0.8, cx+r*0.8, cy+r*0.8, col)
	case 2:
		cv.fillTriangle(cx, cy-r, cy+r, r*0.9, col)
	case 3:
		cv.fillCross(cx, cy, r, r*0.28, col)
	case 4:
		cv.fillRing(cx, cy, r, r*0.55, col)
	case 5:
		cv.fillRect(cx-r, cy-r*0.3, cx+r, cy+r*0.3, col) // horizontal bar
	case 6:
		cv.fillRect(cx-r*0.3, cy-r, cx+r*0.3, cy+r, col) // vertical bar
	case 7:
		cv.fillDiamond(cx, cy, r, col)
	case 8:
		cv.fillChecker(cx-r, cy-r, 4, r/2, col, randColor(rng, 3))
	case 9:
		// Two stacked circles ("snowman") — a composite shape.
		cv.fillCircle(cx, cy+r*0.4, r*0.65, col)
		cv.fillCircle(cx, cy-r*0.5, r*0.45, col)
	}
	cv.sensorNoise(rng, 0.05)
}

// HouseNumbers is the SVHN substitute: 32×32 RGB street-number-style crops —
// a centered digit with clutter digits at the edges, on a colored textured
// background.
type HouseNumbers struct{}

// Name implements Generator.
func (HouseNumbers) Name() string { return "housenumbers" }

// Classes implements Generator.
func (HouseNumbers) Classes() int { return 10 }

// SampleShape implements Generator.
func (HouseNumbers) SampleShape() []int { return []int{3, 32, 32} }

// Generate implements Generator.
func (h HouseNumbers) Generate(n int, seed int64) *Dataset {
	return NewRecipe(h, n, seed).Materialize()
}

// Render implements Generator.
func (HouseNumbers) Render(img *tensor.Tensor, label int, rng *tensor.RNG) {
	cv := newCanvas(img)
	cv.valueNoise(rng, 12, 0.5, 0.3)
	ink := randColor(rng, 3)
	scale := 2.4 + 1.2*rng.Float64()
	gw, gh := 5*scale, 7*scale
	x0 := rng.Uniform(16-gw/2-2, 16-gw/2+2)
	y0 := rng.Uniform(16-gh/2-2, 16-gh/2+2)
	shear := rng.Uniform(-0.3, 0.3)
	// Clutter digits poking in from the sides, as in real SVHN crops.
	if rng.Float64() < 0.7 {
		cv.drawGlyph(rng.Intn(10), x0-gw-2, y0+rng.Uniform(-2, 2), scale, shear, randColor(rng, 3), 0.8)
	}
	if rng.Float64() < 0.7 {
		cv.drawGlyph(rng.Intn(10), x0+gw+2, y0+rng.Uniform(-2, 2), scale, shear, randColor(rng, 3), 0.8)
	}
	cv.drawGlyph(label, x0, y0, scale, shear, ink, 1)
	cv.sensorNoise(rng, 0.06)
}

// TinyScenes is the ImageNet substitute: 64×64 RGB "scenes" over 20 classes
// defined by a combination of layout, primary shape and texture — richer
// composition than Objects, matching AlexNet's larger capacity.
type TinyScenes struct{}

// Name implements Generator.
func (TinyScenes) Name() string { return "tinyscenes" }

// Classes implements Generator.
func (TinyScenes) Classes() int { return 20 }

// SampleShape implements Generator.
func (TinyScenes) SampleShape() []int { return []int{3, 64, 64} }

// Generate implements Generator.
func (t TinyScenes) Generate(n int, seed int64) *Dataset { return NewRecipe(t, n, seed).Materialize() }

// Render implements Generator.
func (TinyScenes) Render(img *tensor.Tensor, label int, rng *tensor.RNG) {
	cv := newCanvas(img)
	// Texture frequency is part of the class signature.
	grid := 6 + 4*(label%3)
	cv.valueNoise(rng, grid, 0.45, 0.25)
	// Foreground color carries a class prior (real object classes have
	// strong color statistics) mixed with per-sample variation, so a
	// small AlexNet can learn 20 classes from ~1k images.
	prior := []float64{
		0.5 + 0.5*clamp01(float64((label*7)%20)/19),
		0.5 + 0.5*clamp01(float64((label*13)%20)/19),
		0.5 + 0.5*clamp01(float64((label*3)%20)/19),
	}
	col := randColor(rng, 3)
	for ch := range col {
		col[ch] = 0.8*prior[ch] + 0.2*col[ch]
	}
	base := label / 2 // 10 shape archetypes × 2 layouts
	double := label%2 == 1
	place := func(cx, cy, r float64) {
		switch base {
		case 0:
			cv.fillCircle(cx, cy, r, col)
		case 1:
			cv.fillRect(cx-r*0.8, cy-r*0.8, cx+r*0.8, cy+r*0.8, col)
		case 2:
			cv.fillTriangle(cx, cy-r, cy+r, r*0.9, col)
		case 3:
			cv.fillCross(cx, cy, r, r*0.3, col)
		case 4:
			cv.fillRing(cx, cy, r, r*0.55, col)
		case 5:
			cv.fillDiamond(cx, cy, r, col)
		case 6:
			cv.fillChecker(cx-r, cy-r, 4, r/2, col, randColor(rng, 3))
		case 7:
			cv.fillRect(cx-r, cy-r*0.3, cx+r, cy+r*0.3, col)
		case 8:
			cv.fillCircle(cx, cy+r*0.4, r*0.6, col)
			cv.fillCircle(cx, cy-r*0.5, r*0.45, col)
		case 9:
			cv.fillRing(cx, cy, r, r*0.75, col)
			cv.fillCircle(cx, cy, r*0.3, col)
		}
	}
	if double {
		place(rng.Uniform(16, 26), rng.Uniform(16, 26), rng.Uniform(8, 12))
		place(rng.Uniform(38, 48), rng.Uniform(38, 48), rng.Uniform(8, 12))
	} else {
		place(rng.Uniform(24, 40), rng.Uniform(24, 40), rng.Uniform(13, 20))
	}
	cv.sensorNoise(rng, 0.05)
}
