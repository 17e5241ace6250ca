package replay

import (
	"archive/zip"
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/trace"
)

// Replay archive layout: a shareable zip holding the scenario (so the
// recipient can re-execute the run), the canonical normalized trace,
// and the chained digest (the conformance contract "dbox replay
// -verify" checks).
const (
	archiveScenarioFile = "scenario.yaml"
	archiveTraceFile    = "trace.jsonl"
	archiveDigestFile   = "digest.txt"
)

// WriteArchive packages a run result as a replay archive.
func WriteArchive(w io.Writer, res *Result) error {
	zw := zip.NewWriter(w)
	sf, err := zw.Create(archiveScenarioFile)
	if err != nil {
		return err
	}
	data, err := res.Scenario.Marshal()
	if err != nil {
		return err
	}
	if _, err := sf.Write(data); err != nil {
		return err
	}
	tf, err := zw.Create(archiveTraceFile)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tf)
	if err := writeJSONL(bw, res.Records); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	df, err := zw.Create(archiveDigestFile)
	if err != nil {
		return err
	}
	fmt.Fprintf(df, "digibox-replay v1\nscenario: %s\nrecords: %d\ndigest: %s\n",
		res.Scenario.Name, len(res.Records), res.Digest)
	return zw.Close()
}

func writeJSONL(w io.Writer, recs []trace.Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// ArchiveBytes returns the archive as a byte slice (control API).
func ArchiveBytes(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteArchive(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Archive is a parsed replay archive.
type Archive struct {
	Scenario *Scenario
	Records  []trace.Record
	Digest   string
}

// ReadArchive parses a replay archive stream.
func ReadArchive(r io.ReaderAt, size int64) (*Archive, error) {
	zr, err := zip.NewReader(r, size)
	if err != nil {
		return nil, fmt.Errorf("replay: not a replay archive: %w", err)
	}
	ar := &Archive{}
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		switch f.Name {
		case archiveScenarioFile:
			sc, err := ParseScenario(data)
			if err != nil {
				return nil, err
			}
			ar.Scenario = sc
		case archiveTraceFile:
			recs, err := trace.ReadJSONL(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			ar.Records = recs
		case archiveDigestFile:
			for _, line := range strings.Split(string(data), "\n") {
				if v, ok := strings.CutPrefix(line, "digest: "); ok {
					ar.Digest = strings.TrimSpace(v)
				}
			}
		}
	}
	if ar.Scenario == nil {
		return nil, fmt.Errorf("replay: archive has no %s", archiveScenarioFile)
	}
	if ar.Digest == "" {
		return nil, fmt.Errorf("replay: archive has no digest")
	}
	return ar, nil
}

// LoadArchive reads a replay archive from a file path.
func LoadArchive(path string) (*Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadArchive(f, st.Size())
}

// ParseArchiveBytes parses a replay archive held in memory.
//
//dbox:allow deadcode -- ctl's record tests open archives with it
func ParseArchiveBytes(data []byte) (*Archive, error) {
	return ReadArchive(bytes.NewReader(data), int64(len(data)))
}
