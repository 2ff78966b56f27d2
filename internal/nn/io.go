package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"shredder/internal/tensor"
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

// ErrNoInputNorm is what Load returns for a checkpoint that records no
// usable input normalisation — one written before checkpoints carried it.
var ErrNoInputNorm = errors.New("nn: checkpoint records no input normalisation")

// checkpoint is the gob wire format of a saved model: the network name, a
// parameter map keyed by parameter name and the input normalisation.
type checkpoint struct {
	Network string
	Params  map[string]*tensor.Tensor
	Norm    InputNorm
}

// Save writes the network's parameters and the input normalisation it was
// trained under to w. The topology is not saved; it is reconstructed by the
// model zoo, and names are checked at load time.
func Save(s *Sequential, norm InputNorm, w io.Writer) error {
	if !norm.valid() {
		return fmt.Errorf("nn: save %q: input normalisation (mean %v, std %v) is not usable", s.Name(), norm.Mean, norm.Std)
	}
	cp := checkpoint{Network: s.Name(), Params: map[string]*tensor.Tensor{}, Norm: norm}
	for _, p := range s.Params() {
		if _, dup := cp.Params[p.Name]; dup {
			return fmt.Errorf("nn: duplicate parameter name %q while saving %q", p.Name, s.Name())
		}
		cp.Params[p.Name] = p.Value
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("nn: save %q: %w", s.Name(), err)
	}
	return nil
}

// Load reads what Save wrote into an already-constructed network of the same
// topology and returns the input normalisation. Every parameter must be
// present with a matching shape, the saved network name must match, and the
// normalisation must be there (ErrNoInputNorm). On an error the network is
// left as it was.
func Load(s *Sequential, r io.Reader) (InputNorm, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return InputNorm{}, fmt.Errorf("nn: load %q: %w", s.Name(), err)
	}
	if cp.Network != s.Name() {
		return InputNorm{}, fmt.Errorf("nn: checkpoint is for network %q, not %q", cp.Network, s.Name())
	}
	for _, p := range s.Params() {
		saved, ok := cp.Params[p.Name]
		if !ok {
			return InputNorm{}, fmt.Errorf("nn: checkpoint missing parameter %q", p.Name)
		}
		if !tensor.ShapeEq(saved.Shape(), p.Value.Shape()) {
			return InputNorm{}, fmt.Errorf("nn: parameter %q shape %v does not match model shape %v",
				p.Name, saved.Shape(), p.Value.Shape())
		}
	}
	if !cp.Norm.valid() {
		return InputNorm{}, fmt.Errorf("%w (load %q: mean %v, std %v)", ErrNoInputNorm, s.Name(), cp.Norm.Mean, cp.Norm.Std)
	}
	for _, p := range s.Params() {
		p.Value.CopyFrom(cp.Params[p.Name])
	}
	return cp.Norm, nil
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
	f, err := os.Open(path)
	if err != nil {
		return InputNorm{}, fmt.Errorf("nn: load file: %w", err)
	}
	defer f.Close()
	return Load(s, f)
}
