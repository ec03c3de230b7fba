// Package rs implements Reed-Solomon erasure coding over GF(2^8),
// the file encoding the paper sketches in section 3.6: adding m
// checksum (parity) blocks to n data blocks of equal size allows
// recovery from up to m block losses, reducing the storage overhead for
// tolerating m failures from m+1 copies to (m+n)/n times the file size.
//
// The implementation is the classic systematic construction: a
// Vandermonde matrix normalized so its top n rows are the identity, data
// shards pass through unchanged, and any n surviving shards reconstruct
// the rest by inverting the corresponding submatrix.
package rs

import (
	"errors"
	"fmt"
)

// Arithmetic over GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1 (0x11b
// is common too; we use 0x11d, the polynomial standard in storage RS).
var (
	expTable [512]byte
	logTable [256]byte
	// mulTable[a][b] = a*b over GF(2^8). The row mulTable[coef] turns
	// the coder's inner loops into a single table lookup per byte —
	// no zero tests, no log/exp index arithmetic — which is where all
	// the encode and reconstruct time goes.
	mulTable [256][256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		// multiply x by the generator 2 modulo 0x11d
		x2 := x << 1
		if x&0x80 != 0 {
			x2 ^= 0x1d
		}
		x = x2
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[int(logTable[a])+int(logTable[b])]
		}
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("rs: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

func gfInv(a byte) byte { return gfDiv(1, a) }

func gfExp(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (int(logTable[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return expTable[l]
}

// Errors returned by the encoder.
var (
	ErrInvalidShards = errors.New("rs: invalid shard configuration")
	ErrTooFewShards  = errors.New("rs: too few shards to reconstruct")
	ErrShardSize     = errors.New("rs: shards must be non-empty and of equal size")
)

// Encoder encodes data into dataShards+parityShards shards and
// reconstructs missing shards from any dataShards survivors.
type Encoder struct {
	dataShards   int
	parityShards int
	// m is the (dataShards+parityShards) x dataShards systematic coding
	// matrix: the top dataShards rows are the identity.
	m [][]byte
}

// New creates an encoder with the given shard counts. dataShards +
// parityShards must be at most 255.
func New(dataShards, parityShards int) (*Encoder, error) {
	if dataShards <= 0 || parityShards <= 0 || dataShards+parityShards > 255 {
		return nil, fmt.Errorf("%w: %d data + %d parity", ErrInvalidShards, dataShards, parityShards)
	}
	total := dataShards + parityShards
	// Vandermonde matrix: v[r][c] = r^c.
	v := make([][]byte, total)
	for r := range v {
		v[r] = make([]byte, dataShards)
		for c := 0; c < dataShards; c++ {
			v[r][c] = gfExp(byte(r+1), c)
		}
	}
	// Normalize so the top dataShards x dataShards block is the identity:
	// multiply by the inverse of the top block.
	top := make([][]byte, dataShards)
	for i := range top {
		top[i] = append([]byte(nil), v[i]...)
	}
	inv, err := invert(top)
	if err != nil {
		return nil, fmt.Errorf("rs: building coding matrix: %w", err)
	}
	m := matMul(v, inv)
	return &Encoder{dataShards: dataShards, parityShards: parityShards, m: m}, nil
}

// DataShards returns the number of data shards.
func (e *Encoder) DataShards() int { return e.dataShards }

// ParityShards returns the number of parity shards.
func (e *Encoder) ParityShards() int { return e.parityShards }

// TotalShards returns dataShards+parityShards.
func (e *Encoder) TotalShards() int { return e.dataShards + e.parityShards }

// StorageOverhead returns the storage multiplier (n+m)/n the paper
// quotes for tolerating m losses.
func (e *Encoder) StorageOverhead() float64 {
	return float64(e.TotalShards()) / float64(e.dataShards)
}

// Split pads data and splits it into dataShards equal shards, leaving
// room so Encode can be called on the returned slice (parity shards are
// allocated zeroed).
func (e *Encoder) Split(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, ErrShardSize
	}
	per := (len(data) + e.dataShards - 1) / e.dataShards
	shards := make([][]byte, e.TotalShards())
	for i := 0; i < e.dataShards; i++ {
		shards[i] = make([]byte, per)
		lo := i * per
		if lo < len(data) {
			copy(shards[i], data[lo:min(len(data), lo+per)])
		}
	}
	for i := e.dataShards; i < e.TotalShards(); i++ {
		shards[i] = make([]byte, per)
	}
	return shards, nil
}

// Join concatenates the data shards and truncates to size.
func (e *Encoder) Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) < e.dataShards {
		return nil, ErrTooFewShards
	}
	var out []byte
	for i := 0; i < e.dataShards; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("%w: data shard %d missing (reconstruct first)", ErrTooFewShards, i)
		}
		out = append(out, shards[i]...)
	}
	if size > len(out) {
		return nil, fmt.Errorf("rs: join size %d exceeds shard data %d", size, len(out))
	}
	return out[:size], nil
}

// Encode computes the parity shards from the data shards in place.
func (e *Encoder) Encode(shards [][]byte) error {
	if err := e.checkShards(shards, false); err != nil {
		return err
	}
	for p := 0; p < e.parityShards; p++ {
		row := e.m[e.dataShards+p]
		out := shards[e.dataShards+p]
		for i := range out {
			out[i] = 0
		}
		for d := 0; d < e.dataShards; d++ {
			coef := row[d]
			if coef == 0 {
				continue
			}
			mul := &mulTable[coef]
			src := shards[d]
			for i := range out {
				out[i] ^= mul[src[i]]
			}
		}
	}
	return nil
}

// Verify recomputes the parity and reports whether it matches.
func (e *Encoder) Verify(shards [][]byte) (bool, error) {
	if err := e.checkShards(shards, false); err != nil {
		return false, err
	}
	per := len(shards[0])
	tmp := make([]byte, per)
	for p := 0; p < e.parityShards; p++ {
		row := e.m[e.dataShards+p]
		for i := range tmp {
			tmp[i] = 0
		}
		for d := 0; d < e.dataShards; d++ {
			coef := row[d]
			if coef == 0 {
				continue
			}
			mul := &mulTable[coef]
			src := shards[d]
			for i := range tmp {
				tmp[i] ^= mul[src[i]]
			}
		}
		for i := range tmp {
			if tmp[i] != shards[e.dataShards+p][i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// Reconstruct rebuilds missing shards (nil entries) in place. It needs
// at least dataShards present shards.
func (e *Encoder) Reconstruct(shards [][]byte) error {
	if err := e.checkShards(shards, true); err != nil {
		return err
	}
	present := 0
	per := 0
	for _, s := range shards {
		if s != nil {
			present++
			per = len(s)
		}
	}
	if present == e.TotalShards() {
		return nil
	}
	if present < e.dataShards {
		return fmt.Errorf("%w: %d of %d present, need %d", ErrTooFewShards, present, e.TotalShards(), e.dataShards)
	}

	// Pick dataShards surviving rows and invert that submatrix.
	subM := make([][]byte, 0, e.dataShards)
	subShards := make([][]byte, 0, e.dataShards)
	for i := 0; i < e.TotalShards() && len(subM) < e.dataShards; i++ {
		if shards[i] != nil {
			subM = append(subM, append([]byte(nil), e.m[i]...))
			subShards = append(subShards, shards[i])
		}
	}
	dec, err := invert(subM)
	if err != nil {
		return fmt.Errorf("rs: reconstruct: %w", err)
	}

	// Rebuild missing data shards: data = dec * survivors.
	for d := 0; d < e.dataShards; d++ {
		if shards[d] != nil {
			continue
		}
		out := make([]byte, per)
		for c := 0; c < e.dataShards; c++ {
			coef := dec[d][c]
			if coef == 0 {
				continue
			}
			mul := &mulTable[coef]
			src := subShards[c]
			for i := range out {
				out[i] ^= mul[src[i]]
			}
		}
		shards[d] = out
	}
	// Rebuild missing parity shards from the (now complete) data.
	for p := 0; p < e.parityShards; p++ {
		idx := e.dataShards + p
		if shards[idx] != nil {
			continue
		}
		out := make([]byte, per)
		row := e.m[idx]
		for d := 0; d < e.dataShards; d++ {
			coef := row[d]
			if coef == 0 {
				continue
			}
			mul := &mulTable[coef]
			src := shards[d]
			for i := range out {
				out[i] ^= mul[src[i]]
			}
		}
		shards[idx] = out
	}
	return nil
}

// ReconstructInto rebuilds ONLY shard idx from any dataShards present
// shards, writing the result into dst (which must be shard-sized).
// Unlike Reconstruct it never materializes the other missing shards:
// the target shard — data or parity — is a single matrix row applied
// to the survivors, which is what a fragment repair wants (re-create
// one lost fragment from m survivors without decoding the whole file).
// shards[idx] is ignored; it may be nil or stale.
func (e *Encoder) ReconstructInto(shards [][]byte, idx int, dst []byte) error {
	if err := e.checkShards(shards, true); err != nil {
		return err
	}
	if idx < 0 || idx >= e.TotalShards() {
		return fmt.Errorf("%w: shard index %d of %d", ErrInvalidShards, idx, e.TotalShards())
	}
	// Pick dataShards surviving rows (never the target itself) and
	// invert that submatrix.
	subM := make([][]byte, 0, e.dataShards)
	subShards := make([][]byte, 0, e.dataShards)
	per := -1
	for i := 0; i < e.TotalShards() && len(subM) < e.dataShards; i++ {
		if i == idx || shards[i] == nil {
			continue
		}
		subM = append(subM, append([]byte(nil), e.m[i]...))
		subShards = append(subShards, shards[i])
		per = len(shards[i])
	}
	if len(subM) < e.dataShards {
		return fmt.Errorf("%w: need %d survivors besides shard %d", ErrTooFewShards, e.dataShards, idx)
	}
	if len(dst) != per {
		return fmt.Errorf("%w: dst is %d bytes, shards are %d", ErrShardSize, len(dst), per)
	}
	dec, err := invert(subM)
	if err != nil {
		return fmt.Errorf("rs: reconstruct-into: %w", err)
	}
	// Coefficient row of the target shard over the survivors: for a data
	// shard it is a row of the decoder; for a parity shard, the parity's
	// coding row composed with the decoder.
	coefs := make([]byte, e.dataShards)
	if idx < e.dataShards {
		copy(coefs, dec[idx])
	} else {
		row := e.m[idx]
		for c := 0; c < e.dataShards; c++ {
			var acc byte
			for k := 0; k < e.dataShards; k++ {
				acc ^= gfMul(row[k], dec[k][c])
			}
			coefs[c] = acc
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	for c, coef := range coefs {
		if coef == 0 {
			continue
		}
		mul := &mulTable[coef]
		src := subShards[c]
		for i := range dst {
			dst[i] ^= mul[src[i]]
		}
	}
	return nil
}

// checkShards validates shard count and sizes. allowNil permits missing
// shards (for Reconstruct).
func (e *Encoder) checkShards(shards [][]byte, allowNil bool) error {
	if len(shards) != e.TotalShards() {
		return fmt.Errorf("%w: got %d shards, want %d", ErrInvalidShards, len(shards), e.TotalShards())
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if !allowNil {
				return fmt.Errorf("%w: shard %d is nil", ErrShardSize, i)
			}
			continue
		}
		if len(s) == 0 {
			return ErrShardSize
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSize
		}
	}
	if size == -1 {
		return ErrTooFewShards
	}
	return nil
}

// matMul multiplies a (r x n) by b (n x n).
func matMul(a, b [][]byte) [][]byte {
	rows := len(a)
	n := len(b)
	out := make([][]byte, rows)
	for r := 0; r < rows; r++ {
		out[r] = make([]byte, n)
		for c := 0; c < n; c++ {
			var acc byte
			for k := 0; k < n; k++ {
				acc ^= gfMul(a[r][k], b[k][c])
			}
			out[r][c] = acc
		}
	}
	return out
}

// invert inverts a square matrix over GF(2^8) by Gauss-Jordan
// elimination. The input is clobbered.
func invert(m [][]byte) ([][]byte, error) {
	n := len(m)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("singular matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		// Scale pivot row to 1.
		if p := m[col][col]; p != 1 {
			pi := gfInv(p)
			for c := 0; c < n; c++ {
				m[col][c] = gfMul(m[col][c], pi)
				inv[col][c] = gfMul(inv[col][c], pi)
			}
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for c := 0; c < n; c++ {
				m[r][c] ^= gfMul(f, m[col][c])
				inv[r][c] ^= gfMul(f, inv[col][c])
			}
		}
	}
	return inv, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
