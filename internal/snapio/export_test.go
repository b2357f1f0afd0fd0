package snapio

// Offset is how many bytes the decoder has consumed.
func (d *Decoder) Offset() int { return d.off }
