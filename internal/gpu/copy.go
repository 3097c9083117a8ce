package gpu

import (
	"fmt"

	"gpucluster/internal/vecmath"
)

// CopyRect copies the viewport rectangle r from the pbuffer into the same
// rectangle of the destination texture — the glCopyTexSubImage2D of the
// paper's render-then-copy cycle, used for the small boundary rectangles.
func (d *Device) CopyRect(pb *PBuffer, dst *Texture2D, r Rect) error {
	if pb.freed || dst.freed {
		return ErrFreed
	}
	if pb.w != dst.w || pb.h != dst.h {
		return fmt.Errorf("gpu: CopyRect size mismatch %dx%d -> %dx%d", pb.w, pb.h, dst.w, dst.h)
	}
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > pb.w || r.Y1 > pb.h || r.X0 > r.X1 || r.Y0 > r.Y1 {
		return fmt.Errorf("gpu: CopyRect rect %+v outside %dx%d", r, pb.w, pb.h)
	}
	for y := r.Y0; y < r.Y1; y++ {
		copy(dst.data[y*dst.w+r.X0:y*dst.w+r.X1], pb.data[y*pb.w+r.X0:y*pb.w+r.X1])
	}
	d.Stats.TextureCopies++
	d.Stats.CopiedTexels += int64(r.Fragments())
	return nil
}

// CopyTexture duplicates src into dst on-device (a render-to-copy blit);
// both textures must have identical dimensions.
func (d *Device) CopyTexture(src, dst *Texture2D) error {
	if src.freed || dst.freed {
		return ErrFreed
	}
	if src.w != dst.w || src.h != dst.h {
		return fmt.Errorf("gpu: CopyTexture size mismatch %dx%d -> %dx%d", src.w, src.h, dst.w, dst.h)
	}
	copy(dst.data, src.data)
	d.Stats.TextureCopies++
	d.Stats.CopiedTexels += int64(len(src.data))
	return nil
}

// UploadRect writes host data into a sub-rectangle of a texture (the
// glTexSubImage2D path, crossing the fast downstream bus direction).
// data holds r.Fragments() texels, row-major, 4 floats each.
func (d *Device) UploadRect(t *Texture2D, r Rect, data []float32) error {
	if t.freed {
		return ErrFreed
	}
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > t.w || r.Y1 > t.h || r.X0 > r.X1 || r.Y0 > r.Y1 {
		return fmt.Errorf("gpu: UploadRect rect %+v outside %dx%d", r, t.w, t.h)
	}
	if len(data) != r.Fragments()*4 {
		return fmt.Errorf("gpu: UploadRect size %d != %d texels * 4", len(data), r.Fragments())
	}
	i := 0
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			t.data[y*t.w+x] = vecmath.Vec4{data[i], data[i+1], data[i+2], data[i+3]}
			i += 4
		}
	}
	d.bus.Download(int64(len(data)) * 4)
	return nil
}
