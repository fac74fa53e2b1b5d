package pq

import (
	"encoding/gob"
	"fmt"
	"math/rand"
)

// encoderState is the on-wire form of either encoder implementation.
type encoderState struct {
	Kind    string // "kmeans" | "lsh"
	D, C, K int
	Centers []float64
	Planes  []float64 // LSH only
}

func init() {
	gob.Register(encoderState{})
}

// MarshalEncoder converts a fitted encoder to a gob-encodable state.
func MarshalEncoder(e Encoder) (any, error) {
	switch v := e.(type) {
	case *KMeansEncoder:
		return encoderState{
			Kind: "kmeans", D: v.d, C: v.c, K: v.k,
			Centers: append([]float64(nil), v.centers...),
		}, nil
	case *LSHEncoder:
		return encoderState{
			Kind: "lsh", D: v.d, C: v.c, K: v.k,
			Centers: append([]float64(nil), v.centers...),
			Planes:  append([]float64(nil), v.planes...),
		}, nil
	default:
		return nil, fmt.Errorf("pq: cannot marshal encoder type %T", e)
	}
}

// validDims rejects encoder states whose dimensions cannot describe a real
// encoder before any constructor runs: the constructors panic on invalid
// decompositions (their callers fit fresh encoders from code, where a bad
// shape is a programming error), but serialized state is attacker- and
// corruption-facing input, so a crafted D/C/K must surface as an error.
func (st encoderState) validDims() error {
	if st.D <= 0 || st.C <= 0 || st.K <= 0 || st.D%st.C != 0 {
		return fmt.Errorf("pq: encoder state dims D=%d C=%d K=%d invalid", st.D, st.C, st.K)
	}
	if st.Kind == "lsh" && st.K&(st.K-1) != 0 {
		return fmt.Errorf("pq: lsh encoder state K=%d is not a power of two", st.K)
	}
	return nil
}

// UnmarshalEncoder reconstructs an encoder from MarshalEncoder's state.
func UnmarshalEncoder(state any) (Encoder, error) {
	st, ok := state.(encoderState)
	if !ok {
		return nil, fmt.Errorf("pq: bad encoder state type %T", state)
	}
	if err := st.validDims(); err != nil {
		return nil, err
	}
	switch st.Kind {
	case "kmeans":
		e := NewKMeansEncoder(st.D, st.C, st.K, rand.New(rand.NewSource(0)))
		if len(st.Centers) != e.c*e.k*e.v {
			return nil, fmt.Errorf("pq: kmeans centers length %d, want %d", len(st.Centers), e.c*e.k*e.v)
		}
		e.centers = append([]float64(nil), st.Centers...)
		e.transposeCenters()
		return e, nil
	case "lsh":
		e := NewLSHEncoder(st.D, st.C, st.K, rand.New(rand.NewSource(0)))
		if len(st.Centers) != e.c*e.k*e.v || len(st.Planes) != e.c*e.bits*e.v {
			return nil, fmt.Errorf("pq: lsh state lengths %d/%d invalid", len(st.Centers), len(st.Planes))
		}
		e.centers = append([]float64(nil), st.Centers...)
		e.planes = append([]float64(nil), st.Planes...)
		return e, nil
	default:
		return nil, fmt.Errorf("pq: unknown encoder kind %q", st.Kind)
	}
}
