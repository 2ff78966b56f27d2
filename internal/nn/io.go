package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// InputNorm is the input normalisation a network was trained under: a raw
// input x enters the network as (x − Mean)/Std. Training fixes it as it
// fixes the weights, so a checkpoint records both.
type InputNorm struct {
	Mean, Std float64
}

func (n InputNorm) valid() bool {
	return n.Std > 0 && !math.IsInf(n.Std, 0) && !math.IsNaN(n.Mean) && !math.IsInf(n.Mean, 0)
}

// ErrNoInputNorm is what Load returns for a checkpoint whose input
// normalisation is not usable: a zero, negative or non-finite std, a
// non-finite mean.
var ErrNoInputNorm = errors.New("nn: checkpoint records no input normalisation")

// checkpointMagic opens a checkpoint: the artifact container of
// package wire, then the network name, the normalisation (mean, std)
// and a u32 parameter count; per parameter, in the network's own order, a
// name, a shape and the values as raw float64 words.
const checkpointMagic = "shredder-ckpt/3\n"

// Save writes the network's parameters and the input normalisation it was
// trained under to w. The topology is not saved; it is reconstructed by the
// model zoo, and names are checked at load time.
func Save(s *Sequential, norm InputNorm, w io.Writer) error {
	if !norm.valid() {
		return fmt.Errorf("nn: save %q: input normalisation (mean %v, std %v) is not usable", s.Name(), norm.Mean, norm.Std)
	}
	params := s.Params()
	size, seen := len(checkpointMagic)+2+len(s.Name())+16+4, map[string]bool{}
	for _, p := range params {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter name %q while saving %q", p.Name, s.Name())
		}
		seen[p.Name] = true
		size += 2 + len(p.Name) + 4 + 4*len(p.Value.Shape()) + 8*p.Value.Len()
	}
	b := append(make([]byte, 0, size), checkpointMagic...)
	b = wire.AppendName(b, s.Name())
	b = wire.AppendFloats(b, []float64{norm.Mean, norm.Std})
	b = binary.LittleEndian.AppendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = wire.AppendName(b, p.Name)
		b = wire.AppendShape(b, p.Value.Shape())
		b = wire.AppendFloats(b, p.Value.Data())
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("nn: save %q: %w", s.Name(), err)
	}
	return nil
}

// Load reads what Save wrote into an already-constructed network of the same
// topology and returns the input normalisation. The saved network name must
// match, every parameter must be there under its name, in the network's
// order and with its shape, the normalisation must be usable
// (ErrNoInputNorm) and the file must end with the last parameter. On an
// error the network is left as it was.
func Load(s *Sequential, r io.Reader) (InputNorm, error) {
	file, err := wire.ReadAll(r)
	if err != nil {
		return InputNorm{}, fmt.Errorf("nn: load %q: %w", s.Name(), err)
	}
	return load(s, file)
}

// load checks all of file — every name, shape and extent, against the
// network and against the bytes there are — before it writes one value, and
// then converts each payload straight into its parameter's storage.
func load(s *Sequential, file []byte) (InputNorm, error) {
	rd := wire.NewReader(file, checkpointMagic)
	if rd.Err() != nil {
		return InputNorm{}, fmt.Errorf("nn: load %q: %w (the checkpoint format changed: a file written before it is not read — pre-train again)", s.Name(), rd.Err())
	}
	network := rd.Name()
	norm := InputNorm{Mean: rd.F64(), Std: rd.F64()}
	count := rd.U32()
	if rd.Err() != nil {
		return InputNorm{}, fmt.Errorf("nn: load %q: %w", s.Name(), rd.Err())
	}
	if string(network) != s.Name() {
		return InputNorm{}, fmt.Errorf("nn: checkpoint is for network %q, not %q", network, s.Name())
	}
	params := s.Params()
	if int64(count) != int64(len(params)) {
		return InputNorm{}, fmt.Errorf("nn: checkpoint holds %d parameters, network %q has %d", count, s.Name(), len(params))
	}
	payloads := make([][]byte, len(params))
	for i, p := range params {
		name := rd.Name()
		shape, vol := rd.Shape()
		if rd.Err() == nil && string(name) != p.Name {
			return InputNorm{}, fmt.Errorf("nn: checkpoint parameter %d is %q, the model's is %q", i, name, p.Name)
		}
		if rd.Err() == nil && !tensor.ShapeEq(shape, p.Value.Shape()) {
			return InputNorm{}, fmt.Errorf("nn: parameter %q shape %v does not match model shape %v",
				p.Name, shape, p.Value.Shape())
		}
		payloads[i] = rd.Take(vol, 8)
		if rd.Err() != nil {
			return InputNorm{}, fmt.Errorf("nn: load %q: parameter %q: %w", s.Name(), p.Name, rd.Err())
		}
	}
	if err := rd.Close(); err != nil {
		return InputNorm{}, fmt.Errorf("nn: load %q: %w", s.Name(), err)
	}
	if !norm.valid() {
		return InputNorm{}, fmt.Errorf("%w (load %q: mean %v, std %v)", ErrNoInputNorm, s.Name(), norm.Mean, norm.Std)
	}
	for i, p := range params {
		wire.DecodeFloats(p.Value.Data(), payloads[i])
	}
	return norm, nil
}

// SaveFile saves the network to path, creating parent-less files atomically
// via a temp file + rename.
func SaveFile(s *Sequential, norm InputNorm, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("nn: save file: %w", err)
	}
	if err := Save(s, norm, f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("nn: save file: %w", err)
	}
	return os.Rename(tmp, path)
}

// LoadFile loads a file written by SaveFile.
func LoadFile(s *Sequential, path string) (InputNorm, error) {
	file, err := os.ReadFile(path)
	if err != nil {
		return InputNorm{}, fmt.Errorf("nn: load file: %w", err)
	}
	return load(s, file)
}
