package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The checkpoint journal is an append-only JSONL file guarding a campaign
// against coordinator death: a header line pinning the campaign identity
// (kind, params, seed, job count) followed by one line per completed job
// outcome, in arrival order. Every line carries a CRC32 of its payload, so a
// torn or mangled tail — the signature of a kill mid-write — is detected and
// dropped on resume rather than trusted. Resume loads the surviving
// outcomes, compacts the journal through a temp-file + atomic-rename
// rotation (deduplicated, corrupt tail gone), and reopens it for append; the
// affected jobs simply re-run, and since jobs are deterministic the resumed
// aggregate is bit-identical to an uninterrupted run.

// wireOutcome is Outcome with Detail pre-marshaled. Field names and order
// mirror Outcome's JSON tags exactly, so an outcome re-emitted from the
// journal (or the worker protocol) encodes to the same bytes the live
// Outcome produced — the contract that makes resumed JSONL streams
// byte-identical to uninterrupted ones.
type wireOutcome struct {
	Job     int             `json:"job"`
	Name    string          `json:"name,omitempty"`
	Verdict string          `json:"verdict,omitempty"`
	Ok      bool            `json:"ok"`
	Steps   int             `json:"steps"`
	Tallies map[string]int  `json:"tallies,omitempty"`
	Detail  json.RawMessage `json:"detail,omitempty"`
}

func toWire(o Outcome) (wireOutcome, error) {
	w := wireOutcome{
		Job:     o.Job,
		Name:    o.Name,
		Verdict: o.Verdict,
		Ok:      o.Ok,
		Steps:   o.Steps,
		Tallies: o.Tallies,
	}
	if o.Detail != nil {
		raw, err := json.Marshal(o.Detail)
		if err != nil {
			return wireOutcome{}, fmt.Errorf("campaign: outcome %d detail not serializable: %w", o.Job, err)
		}
		w.Detail = raw
	}
	return w, nil
}

// outcome converts back; Detail stays a json.RawMessage (re-encoding it
// reproduces the original bytes, and the aggregate never looks inside).
func (w wireOutcome) outcome() Outcome {
	o := Outcome{
		Job:     w.Job,
		Name:    w.Name,
		Verdict: w.Verdict,
		Ok:      w.Ok,
		Steps:   w.Steps,
		Tallies: w.Tallies,
	}
	if len(w.Detail) > 0 {
		o.Detail = w.Detail
	}
	return o
}

// JournalHeader pins the identity of the campaign a journal belongs to.
// Resume refuses a journal whose header disagrees with the live campaign —
// folding outcomes of a different sweep would silently corrupt results.
type JournalHeader struct {
	Version int    `json:"v"`
	Kind    string `json:"kind"`
	Params  string `json:"params,omitempty"`
	Seed    int64  `json:"seed"`
	Jobs    int    `json:"jobs"`
}

const journalVersion = 1

// journalLine is one JSONL record: exactly one of H or O, guarded by a CRC32
// (IEEE) of the payload's compact JSON encoding.
type journalLine struct {
	CRC string         `json:"crc"`
	H   *JournalHeader `json:"h,omitempty"`
	O   *wireOutcome   `json:"o,omitempty"`
}

func crcOf(payload []byte) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))
}

// Journal is an open checkpoint journal positioned for appends.
type Journal struct {
	f       *os.File
	w       *bufio.Writer
	appends int // outcome records appended through this handle
	// onAppend, when set, is consulted after every outcome append with the
	// running append count; a non-nil error aborts the campaign as if the
	// coordinator died (fault injection hooks in here).
	onAppend func(n int) error
}

// CreateJournal starts a fresh journal at path (truncating any previous
// file) with the given header.
func CreateJournal(path string, h JournalHeader) (*Journal, error) {
	h.Version = journalVersion
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, w: bufio.NewWriter(f)}
	if err := j.writeLine(journalLine{H: &h}); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// OpenJournal resumes from an existing journal: it validates the header
// against want, loads every intact outcome (first write wins on duplicates,
// a corrupt or torn tail is dropped), rotates the file — compacted records
// to a temp file, fsync, atomic rename over the original — and reopens it
// for append. The returned map holds the recovered outcomes by job index.
func OpenJournal(path string, want JournalHeader) (*Journal, map[int]Outcome, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	header, outcomes, err := parseJournal(data)
	if err != nil {
		return nil, nil, err
	}
	if header.Kind != want.Kind || header.Seed != want.Seed || header.Jobs != want.Jobs || header.Params != want.Params {
		return nil, nil, fmt.Errorf("campaign: journal %s belongs to a different campaign (journal %s seed=%d jobs=%d, want %s seed=%d jobs=%d)",
			path, header.Kind, header.Seed, header.Jobs, want.Kind, want.Seed, want.Jobs)
	}

	// Rotate: write the compacted journal next to the original and rename it
	// into place, so a crash during rotation leaves either the old or the new
	// file, never a mix.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".rotate-*")
	if err != nil {
		return nil, nil, err
	}
	tmpPath := tmp.Name()
	j := &Journal{f: tmp, w: bufio.NewWriter(tmp)}
	if err := j.writeLine(journalLine{H: header}); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, nil, err
	}
	done := make(map[int]Outcome, len(outcomes))
	for _, w := range outcomes {
		w := w
		if err := j.writeLine(journalLine{O: &w}); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return nil, nil, err
		}
		done[w.Job] = w.outcome()
	}
	if err := j.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, nil, err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return nil, nil, err
	}
	return j, done, nil
}

// parseJournal decodes journal bytes: the header plus every intact outcome
// in file order, deduplicated first-wins. Decoding stops at the first bad
// line (torn write, CRC mismatch, junk): records past a mangled region are
// untrustworthy, and since appends are sequential only the tail can be torn
// by a crash. A missing or invalid header is an error — nothing in the file
// can be attributed to a campaign.
func parseJournal(data []byte) (*JournalHeader, []wireOutcome, error) {
	var (
		header   *JournalHeader
		outcomes []wireOutcome
		seen     = make(map[int]bool)
	)
	for len(data) > 0 {
		var lineBytes []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			lineBytes, data = data[:i], data[i+1:]
		} else {
			lineBytes, data = data, nil // unterminated tail: parse it, likely torn
		}
		if len(bytes.TrimSpace(lineBytes)) == 0 {
			continue
		}
		line, ok := decodeLine(lineBytes)
		if !ok {
			break // corrupt from here on; drop the tail
		}
		if line.H != nil {
			if header != nil {
				break // a second header is nonsense; stop trusting the rest
			}
			header = line.H
			continue
		}
		if header == nil {
			return nil, nil, fmt.Errorf("campaign: journal does not start with a header")
		}
		if line.O != nil && !seen[line.O.Job] {
			seen[line.O.Job] = true
			outcomes = append(outcomes, *line.O)
		}
	}
	if header == nil {
		return nil, nil, fmt.Errorf("campaign: journal has no intact header (empty or corrupt file)")
	}
	if header.Version != journalVersion {
		return nil, nil, fmt.Errorf("campaign: journal version %d, this build writes %d", header.Version, journalVersion)
	}
	return header, outcomes, nil
}

// decodeLine parses one journal line and verifies its CRC. It reports ok =
// false for anything that cannot be trusted byte for byte.
func decodeLine(lineBytes []byte) (journalLine, bool) {
	var probe struct {
		CRC string          `json:"crc"`
		H   json.RawMessage `json:"h,omitempty"`
		O   json.RawMessage `json:"o,omitempty"`
	}
	if err := json.Unmarshal(lineBytes, &probe); err != nil {
		return journalLine{}, false
	}
	var payload json.RawMessage
	switch {
	case len(probe.H) > 0 && len(probe.O) == 0:
		payload = probe.H
	case len(probe.O) > 0 && len(probe.H) == 0:
		payload = probe.O
	default:
		return journalLine{}, false
	}
	// The CRC was computed over the compact encoding; recompact before
	// checking so whitespace-only differences cannot slip mangled bytes by.
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return journalLine{}, false
	}
	if crcOf(compact.Bytes()) != probe.CRC {
		return journalLine{}, false
	}
	var line journalLine
	if err := json.Unmarshal(lineBytes, &line); err != nil {
		return journalLine{}, false
	}
	return line, true
}

func (j *Journal) writeLine(line journalLine) error {
	var payload []byte
	var err error
	switch {
	case line.H != nil:
		payload, err = json.Marshal(line.H)
	case line.O != nil:
		payload, err = json.Marshal(line.O)
	default:
		return fmt.Errorf("campaign: empty journal line")
	}
	if err != nil {
		return err
	}
	line.CRC = crcOf(payload)
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(data); err != nil {
		return err
	}
	return j.w.WriteByte('\n')
}

// Append journals one completed outcome and flushes it to the OS, so a
// coordinator kill immediately after loses nothing. (No per-record fsync:
// the cost would dwarf small jobs, and a machine-level crash at worst
// re-runs the unsynced tail — determinism makes that free.)
func (j *Journal) Append(o Outcome) error {
	w, err := toWire(o)
	if err != nil {
		return err
	}
	if err := j.writeLine(journalLine{O: &w}); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.appends++
	if j.onAppend != nil {
		if err := j.onAppend(j.appends); err != nil {
			return err
		}
	}
	return nil
}

// Appends returns the number of outcomes appended through this handle.
func (j *Journal) Appends() int { return j.appends }

// Sync flushes buffered writes and fsyncs the file.
func (j *Journal) Sync() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	syncErr := j.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// MangleTail damages the journal's final record in place to simulate a kill
// mid-write: TailTruncate cuts the last line roughly in half, TailCorrupt
// flips a byte inside it. Fault injection (and tests) use this through the
// coordinator's crash directives; it is exported for the resume tests.
func MangleTail(path string, fault string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	trimmed := bytes.TrimRight(data, "\n")
	lineStart := bytes.LastIndexByte(trimmed, '\n') + 1
	if lineStart >= len(trimmed) {
		return fmt.Errorf("campaign: journal %s has no tail record to mangle", path)
	}
	switch fault {
	case "trunc":
		cut := lineStart + (len(trimmed)-lineStart)/2
		data = data[:cut]
	case "corrupt":
		mid := lineStart + (len(trimmed)-lineStart)/2
		data[mid] ^= 0x20
	default:
		return fmt.Errorf("campaign: unknown tail fault %q", fault)
	}
	return os.WriteFile(path, data, 0o644)
}
