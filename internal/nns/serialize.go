package nns

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"infilter/internal/flow"
)

// The detector serializer persists what cannot be rebuilt cheaply or must
// be identical across hosts: the configuration, each subcluster's indexed
// training vectors and its calibrated threshold. The table structures are
// NOT stored — Build is deterministic in Params.Seed, so load-time
// reconstruction yields bit-identical structures at a fraction of the file
// size (the tables alone would be ~12 MB per subcluster). Format version
// 1 stores each vector as its d-bit unary code in 64-bit words,
// least-significant bit first.

// detectorDTO is the on-disk form.
type detectorDTO struct {
	Version  int
	Config   DetectorConfig
	Clusters map[flow.Subcluster]clusterDTO
}

type clusterDTO struct {
	Threshold int
	NBits     int
	Vecs      [][]uint64
}

// detectorFormatVersion guards against incompatible files.
const detectorFormatVersion = 1

// Save persists the trained detector.
func (d *Detector) Save(w io.Writer) error {
	dto := detectorDTO{
		Version:  detectorFormatVersion,
		Config:   d.cfg,
		Clusters: make(map[flow.Subcluster]clusterDTO, len(d.clusters)),
	}
	for c, st := range d.clusters {
		cd := clusterDTO{Threshold: st.threshold, NBits: d.cfg.Params.D}
		for _, v := range st.structure.cluster {
			cd.Vecs = append(cd.Vecs, unaryWords(v, cd.NBits))
		}
		dto.Clusters[c] = cd
	}
	if err := gob.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("nns: save detector: %w", err)
	}
	return nil
}

// LoadDetector reconstructs a detector saved with Save: thresholds are
// restored verbatim and the per-cluster KOR structures are rebuilt from
// the stored vectors with the saved seeds.
func LoadDetector(r io.Reader) (*Detector, error) {
	var dto detectorDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("nns: load detector: %w", err)
	}
	if dto.Version != detectorFormatVersion {
		return nil, fmt.Errorf("nns: detector file version %d, want %d", dto.Version, detectorFormatVersion)
	}
	if len(dto.Clusters) == 0 {
		return nil, fmt.Errorf("nns: detector file has no clusters")
	}
	enc, err := NewEncoder(dto.Config.Params.D, dto.Config.Ranges)
	if err != nil {
		return nil, fmt.Errorf("nns: load detector: %w", err)
	}
	d := &Detector{
		cfg:      dto.Config,
		enc:      enc,
		clusters: make(map[flow.Subcluster]*clusterState, len(dto.Clusters)),
		metrics:  &Metrics{},
	}
	for c, cd := range dto.Clusters {
		if cd.NBits != enc.D() {
			return nil, fmt.Errorf("nns: load %v cluster: %d-bit vectors, want %d", c, cd.NBits, enc.D())
		}
		vecs := make([]Levels, len(cd.Vecs))
		for i, words := range cd.Vecs {
			v, ok := levelsOf(words, cd.NBits)
			if !ok {
				return nil, fmt.Errorf("nns: load %v cluster vec %d: not a unary code", c, i)
			}
			vecs[i] = v
		}
		params := dto.Config.Params
		params.Seed = dto.Config.Params.Seed + int64(c)
		st, err := Build(params, vecs)
		if err != nil {
			return nil, fmt.Errorf("nns: rebuild %v structure: %w", c, err)
		}
		d.clusters[c] = &clusterState{structure: st, threshold: cd.Threshold}
	}
	return d, nil
}

// unaryWords is the d-bit unary code of v in 64-bit words.
func unaryWords(v Levels, d int) []uint64 {
	dc := d / flow.NumStats
	words := make([]uint64, (d+63)/64)
	for s, l := range v {
		for b := s * dc; b < s*dc+int(l); b++ {
			words[b/64] |= 1 << (b % 64)
		}
	}
	return words
}

// levelsOf inverts unaryWords. It reports false for words that are not a
// d-bit unary code: per statistic, a run of ones from its first bit and
// zeros after it, and no bit set past d.
func levelsOf(words []uint64, d int) (Levels, bool) {
	var v Levels
	if len(words) != (d+63)/64 {
		return v, false
	}
	dc := d / flow.NumStats
	for s := range v {
		for b := s * dc; b < (s+1)*dc && words[b/64]>>(b%64)&1 == 1; b++ {
			v[s]++
		}
	}
	return v, slices.Equal(unaryWords(v, d), words)
}
