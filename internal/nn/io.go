package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"shredder/internal/tensor"
)

// checkpoint is the gob wire format of a saved model: the network name and
// a parameter map keyed by parameter name.
type checkpoint struct {
	Network string
	Params  map[string]*tensor.Tensor
}

// Save writes the network's parameters to w. Only parameter values are
// saved; the topology is reconstructed by the model zoo, and names are
// checked at load time.
func Save(s *Sequential, w io.Writer) error {
	cp := checkpoint{Network: s.Name(), Params: map[string]*tensor.Tensor{}}
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

// Load reads parameters written by Save into an already-constructed network
// of the same topology. Every parameter must be present with a matching
// shape; the saved network name must match too. On an error the network is
// left as it was.
func Load(s *Sequential, r io.Reader) error {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("nn: load %q: %w", s.Name(), err)
	}
	if cp.Network != s.Name() {
		return fmt.Errorf("nn: checkpoint is for network %q, not %q", cp.Network, s.Name())
	}
	for _, p := range s.Params() {
		saved, ok := cp.Params[p.Name]
		if !ok {
			return fmt.Errorf("nn: checkpoint missing parameter %q", p.Name)
		}
		if !tensor.ShapeEq(saved.Shape(), p.Value.Shape()) {
			return fmt.Errorf("nn: parameter %q shape %v does not match model shape %v",
				p.Name, saved.Shape(), p.Value.Shape())
		}
	}
	for _, p := range s.Params() {
		p.Value.CopyFrom(cp.Params[p.Name])
	}
	return nil
}

// SaveFile saves the network to path, creating parent-less files atomically
// via a temp file + rename.
func SaveFile(s *Sequential, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("nn: save file: %w", err)
	}
	if err := Save(s, f); err != nil {
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

// LoadFile loads parameters from a file written by SaveFile.
func LoadFile(s *Sequential, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("nn: load file: %w", err)
	}
	defer f.Close()
	return Load(s, f)
}
